//! `served-mix`: an in-process `cocoon_server::Server` with its default
//! configuration on an ephemeral loopback port, driven by one client with
//! at most `nproc` threads, each owning one keep-alive connection.
//!
//! The run has two phases over one request schedule:
//!
//! 1. an open loop at [`OPEN_RATE`] requests/s, each request timed from
//!    its due send time to its last response byte (for a job, to the poll
//!    that sees it finished), so a stall also charges the requests queued
//!    behind it;
//! 2. a closed loop in which every thread sends its next request as soon
//!    as the previous one completes, saturating the server.
//!
//! Request `i` of the schedule is a sync JSON clean, a chunked `text/csv`
//! upload answered as `text/csv`, or a job submitted and polled
//! ([`kind`]). Its table is one of the bodies warmed during set-up (each
//! set-up's Beers, Rayyan and Hospital tables, and the small messy table)
//! or, in every [`FRESH_EVERY`]th pair of requests from the first on
//! ([`slot`]), a never-seen window of a fresh-seed Hospital or Rayyan
//! table, whose prompts miss the cache and reach the shared dispatcher.
//! Every response must equal the library's bytes for its table.

use crate::probe::Probe;
use crate::report::{self, Metrics, Outcome};
use crate::{dataset_seed, stats, Args};
use cocoon_core::Cleaner;
use cocoon_datasets::{beers, hospital, rayyan};
use cocoon_eval::{evaluate, Equivalence, EvalCounts};
use cocoon_llm::{CachedLlm, ChatModel, Json, SimLlm};
use cocoon_obs::SpanRecorder;
use cocoon_server::api::{clean_response_body, parse_clean_payload};
use cocoon_server::{AppState, Server, ServerConfig};
use cocoon_table::csv::{self, CsvStream};
use cocoon_table::Table;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Open-loop arrival rate, about half the closed-loop capacity measured
/// on a 2-CPU host.
pub const OPEN_RATE: f64 = 8.0;
/// Share of `--seconds` spent in the open loop; the rest is closed loop.
const OPEN_SHARE: f64 = 0.6;
/// Percentile reported as `clean_ms_tail`.
pub const TAIL_PCT: f64 = 90.0;
/// Every this-many-th pair of requests carries fresh tables.
const FRESH_EVERY: usize = 8;
/// Rows of a fresh table window.
const FRESH_ROWS: usize = 150;
/// Disjoint windows taken from one fresh source table (Hospital and
/// Rayyan have 1000 rows).
const FRESH_WINDOWS: usize = 6;
/// Fresh source tables each set-up generates; a run that needs more
/// generates them as it goes.
const FRESH_SOURCES_PER_SETUP: usize = 4;
/// The fresh sources' dataset seeds are those of set-up rounds from this
/// one on, which no set-up reaches.
const FRESH_ROUND: usize = 1000;
/// Pause between two polls of one job.
const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// A job not finished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// The open loop has fallen behind, and the run is invalid, when a
/// request leaves this much later than its due time.
const LATE_LIMIT_MS: f64 = 1500.0;
/// Bytes per chunk of a chunked `text/csv` upload.
const CHUNK: usize = 16 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Json,
    Csv,
    Job,
}

fn kind(i: usize) -> Kind {
    [Kind::Json, Kind::Csv, Kind::Job][i % 3]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// The n-th warm request; it carries warm body `n % warm.len()`.
    Warm(usize),
    /// Fresh body `k`, sent once per run.
    Fresh(usize),
}

/// The table of request `i`. Requests come in pairs `(2p, 2p + 1)` that
/// carry the same kind of table, so a traced run can trace the even
/// requests and compare them with the odd ones over the same mix. Every
/// [`FRESH_EVERY`]th pair, the first included, carries fresh tables, so
/// even a short run reaches the model.
fn slot(i: usize) -> Slot {
    let pair = i / 2;
    if pair.is_multiple_of(FRESH_EVERY) {
        Slot::Fresh(pair / FRESH_EVERY * 2 + i % 2)
    } else {
        Slot::Warm(pair / FRESH_EVERY * (FRESH_EVERY - 1) + pair % FRESH_EVERY - 1)
    }
}

/// One table as the client sends it, with its three prebuilt requests.
struct Body {
    label: String,
    csv: String,
    table: Table,
    /// The `{"csv": …}` envelope of the JSON requests.
    envelope: String,
    json: Vec<u8>,
    chunked: Vec<u8>,
    job: Vec<u8>,
}

impl Body {
    fn new(label: String, csv: String) -> Body {
        let envelope = format!("{{\"csv\": {}}}", cocoon_llm::json::escape(&csv));
        let post = |path: &str| {
            let mut request = format!(
                "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n",
                envelope.len()
            )
            .into_bytes();
            request.extend_from_slice(envelope.as_bytes());
            request
        };
        let (json, job) = (post("/v1/clean"), post("/v1/jobs"));
        let mut chunked = b"POST /v1/clean HTTP/1.1\r\nHost: bench\r\nContent-Type: text/csv\r\n\
                            Accept: text/csv\r\nTransfer-Encoding: chunked\r\n\r\n"
            .to_vec();
        for piece in csv.as_bytes().chunks(CHUNK) {
            chunked.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
            chunked.extend_from_slice(piece);
            chunked.extend_from_slice(b"\r\n");
        }
        chunked.extend_from_slice(b"0\r\n\r\n");
        let table = csv::read_str(&csv).expect("benchmark body parses");
        Body { label, csv, table, envelope, json, chunked, job }
    }

    fn cells(&self) -> usize {
        self.table.height() * self.table.width()
    }
}

/// The library's answer for one body.
struct Expected {
    json: String,
    csv: String,
    eval: EvalCounts,
}

impl Expected {
    /// The bytes a response must carry: the cleaned CSV, or the JSON report.
    fn bytes(&self, csv: bool) -> &str {
        if csv {
            &self.csv
        } else {
            &self.json
        }
    }
}

/// Cleans `body`'s table through the library with `model`; `truth`
/// scores it.
fn expect(body: &Body, truth: Option<&Table>, model: &dyn ChatModel) -> Expected {
    let run = Cleaner::new(model).clean(&body.table).expect("reference clean");
    let eval = truth.map_or_else(EvalCounts::default, |truth| {
        evaluate(&body.table, &run.table, truth, Equivalence::Lenient).counts
    });
    Expected { json: clean_response_body(&run, false), csv: csv::write_str(&run.table), eval }
}

/// A fresh-seed table whose row windows serve as never-seen bodies.
struct FreshSource {
    name: &'static str,
    header: String,
    rows: Vec<String>,
}

impl FreshSource {
    fn new(name: &'static str, table: &Table) -> FreshSource {
        let text = csv::write_str(table);
        let mut records = csv::parse_records(&text).expect("generated table parses");
        let line = |record: &Vec<String>| {
            let fields: Vec<String> = record.iter().map(|f| csv::escape_field(f)).collect();
            fields.join(",") + "\n"
        };
        let rows: Vec<String> = records.split_off(1).iter().map(line).collect();
        assert!(rows.len() >= FRESH_WINDOWS * FRESH_ROWS, "{name} is too short for its windows");
        FreshSource { name, header: line(&records[0]), rows }
    }
}

/// The run's bodies. Every set-up adds one seed's Beers, Rayyan and
/// Hospital tables (and, once, the messy table) to the warm set, and
/// generates [`FRESH_SOURCES_PER_SETUP`] more fresh source tables.
struct Mix {
    seed: u64,
    warm: Vec<Body>,
    expected: Vec<Expected>,
    fresh: Mutex<Vec<Arc<FreshSource>>>,
    /// The library's stand-in for the server's model stack: one cache
    /// over the oracle, warmed with the same bodies. Its answers are the
    /// oracle's own, so a clean through it has a plain clean's bytes, and
    /// what gets past it is what a table asks of a model after the warm
    /// bodies.
    replica: CachedLlm<Probe<SimLlm>>,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix {
            seed,
            warm: Vec::new(),
            expected: Vec::new(),
            fresh: Mutex::new(Vec::new()),
            replica: CachedLlm::new(Probe::new(SimLlm::new())),
        }
    }

    /// Adds set-up `round`'s tables; returns the warm bodies it added.
    fn add(&mut self, round: usize) -> std::ops::Range<usize> {
        let seed = dataset_seed(self.seed, round);
        let first = self.warm.len();
        for dataset in [
            beers::generate_seeded(seed),
            rayyan::generate_seeded(seed),
            hospital::generate_seeded(seed),
        ] {
            let body = Body::new(dataset.name.to_string(), csv::write_str(&dataset.dirty));
            let expected = expect(&body, Some(&dataset.truth), &self.replica);
            self.expected.push(expected);
            self.warm.push(body);
        }
        if first == 0 {
            // The pipeline tests' small table with several issue types.
            let mut messy = String::from("record_id,lang,admission,EmergencyService,rating\n");
            for i in 0..20 {
                messy.push_str(&format!("r{i},eng,01/02/2003,yes,7.5\n"));
            }
            messy.push_str("r20,English,2003-04-05,no,8.0\nr21,eng,01/02/2003,N/A,99.0\n");
            let body = Body::new("messy".to_string(), messy);
            let expected = expect(&body, None, &self.replica);
            self.expected.push(expected);
            self.warm.push(body);
        }
        self.fresh_source(FRESH_SOURCES_PER_SETUP * (round + 1) - 1);
        first..self.warm.len()
    }

    fn warm_index(&self, n: usize) -> usize {
        n % self.warm.len()
    }

    /// Fresh source `j`, generated on first use: a Hospital (even `j`) or
    /// Rayyan (odd `j`) table of a dataset seed no set-up uses.
    fn fresh_source(&self, j: usize) -> Arc<FreshSource> {
        let mut sources = self.fresh.lock().expect("fresh source lock");
        while sources.len() <= j {
            let n = sources.len();
            let seed = dataset_seed(self.seed, FRESH_ROUND + n / 2);
            let dataset = if n.is_multiple_of(2) {
                hospital::generate_seeded(seed)
            } else {
                rayyan::generate_seeded(seed)
            };
            sources.push(Arc::new(FreshSource::new(dataset.name, &dataset.dirty)));
        }
        sources[j].clone()
    }

    /// Fresh body `k`: window `k % FRESH_WINDOWS`, of [`FRESH_ROWS`] rows,
    /// of fresh source `k / FRESH_WINDOWS`. No two fresh bodies share a row.
    fn fresh(&self, k: usize) -> Body {
        let source = self.fresh_source(k / FRESH_WINDOWS);
        let start = k % FRESH_WINDOWS * FRESH_ROWS;
        let text = source.header.clone() + &source.rows[start..start + FRESH_ROWS].concat();
        Body::new(format!("{}#{}[{start}..]", source.name, k / FRESH_WINDOWS), text)
    }
}

/// One response off a keep-alive connection.
struct Reply {
    status: u16,
    csv: bool,
    request_id: Option<u64>,
    body: String,
}

/// A client connection; the gauge counts the client's open connections.
struct Conn<'a> {
    reader: BufReader<TcpStream>,
    gauge: &'a Gauge,
}

#[derive(Default)]
struct Gauge {
    open: AtomicUsize,
    peak: AtomicUsize,
}

impl<'a> Conn<'a> {
    fn open(addr: SocketAddr, gauge: &'a Gauge) -> std::io::Result<Conn<'a>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(JOB_TIMEOUT))?;
        let open = gauge.open.fetch_add(1, Ordering::SeqCst) + 1;
        gauge.peak.fetch_max(open, Ordering::SeqCst);
        Ok(Conn { reader: BufReader::new(stream), gauge })
    }

    fn send(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.reader.get_mut().write_all(request)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        let (mut length, mut csv, mut request_id) = (0usize, false, None);
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let Some((name, value)) = line.trim_end().split_once(':') else {
                break;
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse().unwrap_or(0),
                "content-type" => csv = value.starts_with("text/csv"),
                "x-request-id" => request_id = value.parse().ok(),
                _ => {}
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| std::io::ErrorKind::InvalidData)?;
        Ok(Reply { status, csv, request_id, body })
    }
}

impl Drop for Conn<'_> {
    fn drop(&mut self) {
        self.gauge.open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What a request returned, as far as the client can judge on its own.
enum Verdict {
    Ok,
    Failed,
    /// A fresh table's response, checked after the run.
    Deferred(String),
}

/// One finished request.
struct Done {
    i: usize,
    open: bool,
    traced: bool,
    /// When it was due: its schedule slot in the open loop, its send time
    /// in the closed loop.
    due: Instant,
    sent: Instant,
    /// When its last response byte (or a job's last poll) arrived.
    finished: Instant,
    verdict: Verdict,
    polls: usize,
    handler_ms: Option<f64>,
}

impl Done {
    /// Due time to last byte.
    fn latency_ms(&self) -> f64 {
        (self.finished - self.due).as_secs_f64() * 1e3
    }

    fn late_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

struct Client<'a> {
    addr: SocketAddr,
    mix: &'a Mix,
    state: &'a AppState,
    timeline: &'a SpanRecorder,
    trace: bool,
    next: AtomicUsize,
    gauge: Gauge,
}

impl Client<'_> {
    /// Runs one phase on `threads` threads. An open loop (`rate` set)
    /// sends request `first + n` at `start + n / rate`; a closed loop sends
    /// each thread's next request as soon as the last one completes.
    fn phase(&self, threads: usize, rate: Option<f64>, start: Instant, end: Instant) -> Vec<Done> {
        let first = self.next.load(Ordering::SeqCst);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| scope.spawn(move || self.drive(first, rate, start, end)))
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("client thread")).collect()
        })
    }

    fn drive(&self, first: usize, rate: Option<f64>, start: Instant, end: Instant) -> Vec<Done> {
        let mut done = Vec::new();
        let mut conn = None;
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            let due = rate.map(|rate| start + Duration::from_secs_f64((i - first) as f64 / rate));
            if due.unwrap_or_else(Instant::now) >= end {
                return done;
            }
            let fresh;
            let body = match slot(i) {
                Slot::Warm(n) => &self.mix.warm[self.mix.warm_index(n)],
                Slot::Fresh(k) => {
                    fresh = self.mix.fresh(k);
                    &fresh
                }
            };
            if let Some(wait) = due.and_then(|due| due.checked_duration_since(Instant::now())) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let due = due.unwrap_or(sent);
            let traced = self.trace && i.is_multiple_of(2);
            if conn.is_none() {
                conn = Conn::open(self.addr, &self.gauge).ok();
            }
            let outcome = match conn.as_mut() {
                Some(c) => self.exchange(c, i, body),
                None => Err(std::io::ErrorKind::NotConnected.into()),
            };
            let finished = Instant::now();
            let (verdict, polls, request_id) = outcome.unwrap_or_else(|_| {
                conn = None;
                (Verdict::Failed, 0, None)
            });
            // The client's own tracing runs after the last byte, outside
            // the request's timed interval.
            let mut handler_ms = None;
            if traced {
                if kind(i) != Kind::Job {
                    handler_ms = request_id.and_then(|id| self.handler_ms(id));
                }
                let attrs = vec![
                    ("kind", format!("{:?}", kind(i))),
                    ("table", body.label.clone()),
                    ("request_id", request_id.map_or("-".into(), |id: u64| id.to_string())),
                    ("polls", polls.to_string()),
                ];
                self.timeline.record_with_attrs("request", sent, finished, None, attrs);
            }
            done.push(Done {
                i,
                open: rate.is_some(),
                traced,
                due,
                sent,
                finished,
                verdict,
                polls,
                handler_ms,
            });
        }
    }

    /// Sends request `i` and judges its response; returns the verdict,
    /// the number of job polls and the server's request id.
    fn exchange(
        &self,
        conn: &mut Conn,
        i: usize,
        body: &Body,
    ) -> std::io::Result<(Verdict, usize, Option<u64>)> {
        let expected = match slot(i) {
            Slot::Warm(n) => Some(&self.mix.expected[self.mix.warm_index(n)]),
            Slot::Fresh(_) => None,
        };
        let judge = |text: String, csv_wanted: bool| match expected {
            None => Verdict::Deferred(text),
            Some(e) if text == e.bytes(csv_wanted) => Verdict::Ok,
            Some(_) => Verdict::Failed,
        };
        let kind = kind(i);
        if kind != Kind::Job {
            let reply = conn.send(if kind == Kind::Json { &body.json } else { &body.chunked })?;
            let verdict = if reply.status == 200 && reply.csv == (kind == Kind::Csv) {
                judge(reply.body, kind == Kind::Csv)
            } else {
                Verdict::Failed
            };
            return Ok((verdict, 0, reply.request_id));
        }
        let submitted = conn.send(&body.job)?;
        let id = cocoon_llm::json::parse(&submitted.body)
            .ok()
            .and_then(|json| json.get("id").and_then(Json::as_f64));
        let (202, Some(id)) = (submitted.status, id) else {
            return Ok((Verdict::Failed, 0, submitted.request_id));
        };
        let poll = format!("GET /v1/jobs/{id} HTTP/1.1\r\nHost: bench\r\nAccept: text/csv\r\n\r\n");
        let deadline = Instant::now() + JOB_TIMEOUT;
        let mut polls = 0;
        loop {
            let reply = conn.send(poll.as_bytes())?;
            polls += 1;
            if reply.status != 200 {
                return Ok((Verdict::Failed, polls, submitted.request_id));
            }
            if reply.csv {
                return Ok((judge(reply.body, true), polls, submitted.request_id));
            }
            if reply.body.contains("\"failed\"") || Instant::now() > deadline {
                return Ok((Verdict::Failed, polls, submitted.request_id));
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    /// The server-side handler time of request `id`, from the server's
    /// ring of recently finished traces (it lands there right after the
    /// response is written).
    fn handler_ms(&self, id: u64) -> Option<f64> {
        for _ in 0..200 {
            let traces = self.state.obs.recent_traces();
            if let Some(trace) = traces.iter().find(|t| t.id == id) {
                let handler = trace.spans.iter().find(|s| s.name == "handler")?;
                return Some(handler.duration_ns as f64 / 1e6);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        None
    }
}

/// Counters of `GET /v1/metrics` that the run reports as deltas.
fn server_counters(state: &AppState) -> BTreeMap<&'static str, f64> {
    let json = cocoon_llm::json::parse(&state.metrics_body()).expect("metrics body is JSON");
    let read = |path: &[&str]| {
        path.iter().try_fold(&json, |node, key| node.get(key)).and_then(Json::as_f64).unwrap_or(0.0)
    };
    BTreeMap::from([
        ("rejected", read(&["accept", "rejected_busy"])),
        ("hits", read(&["llm", "cache_hits"])),
        ("misses", read(&["llm", "cache_misses"])),
        ("batches", read(&["llm", "dispatcher", "batches"])),
        ("batched_prompts", read(&["llm", "dispatcher", "batched_prompts"])),
        ("coalesced", read(&["llm", "dispatcher", "coalesced"])),
    ])
}

pub fn run(args: &Args) -> Outcome {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut setup_s = Vec::new();
    let mut mix = Mix::new(args.seed);
    let mut start = Instant::now();
    let config = ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() };
    let server = Server::bind(config).expect("bind the server");
    let handle = server.handle().expect("server handle");
    let mut outcome = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Every set-up generates one seed's tables, computes their
            // library answers and warms the server's cache with them; the
            // first also binds the server.
            for round in 0..crate::SETUPS {
                let added = mix.add(round);
                warm_up(handle.addr(), &mix, added);
                setup_s.push(start.elapsed().as_secs_f64());
                start = Instant::now();
            }
            measure(args, &mix, handle.addr(), server.state(), threads)
        }));
        handle.stop();
        serving.join().expect("serve thread").expect("serve");
        result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    });
    if !args.trace {
        outcome.metrics.set("setup_s", stats::median(&setup_s));
        outcome.metrics.set("peak_rss_mb", report::peak_rss_mb());
    }
    outcome
}

/// Sends the warm bodies in `range` once, filling the server's completion
/// cache, and checks the answers.
fn warm_up(addr: SocketAddr, mix: &Mix, range: std::ops::Range<usize>) {
    let gauge = Gauge::default();
    let mut conn = Conn::open(addr, &gauge).expect("connect for warm-up");
    for (body, expected) in mix.warm[range.clone()].iter().zip(&mix.expected[range]) {
        let reply = conn.send(&body.json).expect("warm-up request");
        assert_eq!((reply.status, &reply.body), (200, &expected.json), "warm-up of {}", body.label);
    }
}

fn measure(args: &Args, mix: &Mix, addr: SocketAddr, state: &AppState, threads: usize) -> Outcome {
    let timeline = SpanRecorder::new();
    let client = Client {
        addr,
        mix,
        state,
        timeline: &timeline,
        trace: args.trace,
        next: AtomicUsize::new(0),
        gauge: Gauge::default(),
    };
    let before = server_counters(state);
    let open_start = Instant::now();
    let open_end = open_start + Duration::from_secs_f64(args.seconds * OPEN_SHARE);
    let mut done = client.phase(threads, Some(OPEN_RATE), open_start, open_end);
    let closed_start = Instant::now().max(open_end);
    let closed_end = open_start + Duration::from_secs_f64(args.seconds);
    done.extend(client.phase(threads, None, closed_start, closed_end));
    let closed_s = done
        .iter()
        .filter(|d| !d.open)
        .map(|d| d.finished)
        .max()
        .map_or(f64::MIN_POSITIVE, |last| (last - closed_start).as_secs_f64());
    let after = server_counters(state);
    let delta = |key: &str| after[key] - before[key];

    // Check the fresh tables' responses against the library now that the
    // clock has stopped, cleaning them through the replica cache; what
    // gets past it gives the tokens of a prompt that reaches the model.
    let replica_before = mix.replica.inner().counts();
    let (mut failed, mut closed_cells, mut fresh_requests, mut fresh_prompts) = (0, 0, 0, 0);
    for d in &done {
        let csv_wanted = kind(d.i) != Kind::Json;
        let (cells, ok) = match slot(d.i) {
            Slot::Warm(n) => {
                (mix.warm[mix.warm_index(n)].cells(), matches!(d.verdict, Verdict::Ok))
            }
            Slot::Fresh(k) => {
                let body = mix.fresh(k);
                let asked = Probe::new(&mix.replica);
                let expected = expect(&body, None, &asked);
                fresh_requests += 1;
                fresh_prompts += asked.counts().prompts;
                let ok = matches!(&d.verdict,
                    Verdict::Deferred(text) if text == expected.bytes(csv_wanted));
                (body.cells(), ok)
            }
        };
        if !ok {
            failed += 1;
        } else if !d.open {
            closed_cells += cells;
        }
    }
    let replica = mix.replica.inner().counts().since(&replica_before);
    let served = (done.len() - failed).max(1) as f64;
    println!(
        "fresh tables: {fresh_requests} requests asking {fresh_prompts} prompts; the server's \
         cache missed {} and its dispatcher sent {} prompts in {} batches ({} coalesced); a \
         warm library cache passes {} prompts in {} calls",
        delta("misses"),
        delta("batched_prompts"),
        delta("batches"),
        delta("coalesced"),
        replica.prompts,
        replica.calls
    );

    let open: Vec<&Done> = done.iter().filter(|d| d.open).collect();
    let late_ms_max = open.iter().map(|d| d.late_ms()).fold(0.0, f64::max);
    let peak_conns = client.gauge.peak.load(Ordering::SeqCst);
    println!(
        "client: {threads} threads, peak {peak_conns} connections; open loop {} requests at \
         {OPEN_RATE}/s, late_ms_max {late_ms_max:.1}; closed loop {} requests in {closed_s:.2} s",
        open.len(),
        done.len() - open.len()
    );
    assert!(peak_conns <= threads, "client opened {peak_conns} connections, over nproc {threads}");
    let valid = late_ms_max <= LATE_LIMIT_MS;
    if !valid {
        eprintln!("served-mix: the open-loop generator fell behind ({late_ms_max:.0} ms late)");
    }

    let mut metrics = Metrics::default();
    if args.trace {
        let sync: Vec<&&Done> = open.iter().filter(|d| d.handler_ms.is_some()).collect();
        let handler: Vec<f64> = sync.iter().filter_map(|d| d.handler_ms).collect();
        let overhead: Vec<f64> = sync
            .iter()
            .map(|d| (d.finished - d.sent).as_secs_f64() * 1e3 - d.handler_ms.unwrap_or(0.0))
            .collect();
        let jobs: Vec<&Done> = done.iter().filter(|d| kind(d.i) == Kind::Job).collect();
        let latencies = |traced: bool| -> Vec<f64> {
            open.iter().filter(|d| d.traced == traced).map(|d| d.latency_ms()).collect()
        };
        let (json_ms, csv_ms) = ingest_probes(mix, &timeline);
        metrics.set("server.handler_ms_p50", non_empty_median(&handler));
        metrics.set("server.overhead_ms_p50", non_empty_median(&overhead));
        metrics.set("server.rejected_503", delta("rejected"));
        metrics.set("llm.dispatcher.batches", delta("batches"));
        metrics.set("llm.dispatcher.coalesced", delta("coalesced"));
        metrics
            .set("llm.cache_hit_ratio", delta("hits") / (delta("hits") + delta("misses")).max(1.0));
        metrics.set(
            "jobs.polls_per_job",
            jobs.iter().map(|d| d.polls as f64).sum::<f64>() / jobs.len().max(1) as f64,
        );
        metrics.set("table.ingest_json_ms", json_ms);
        metrics.set("table.ingest_csv_stream_ms", csv_ms);
        metrics.set("client.late_ms_max", late_ms_max);
        // The server traces every request and cannot be told not to, so
        // this compares requests with and without the client's own
        // tracing, which runs after their last byte.
        let overhead_pct =
            non_empty_median(&latencies(true)) / non_empty_median(&latencies(false)) - 1.0;
        metrics.set("trace.overhead_pct", overhead_pct * 100.0);
        let path = crate::timeline_path(args);
        report::write_timeline(&path, &timeline).expect("write timeline");
        println!("timeline: {} spans written to {}", timeline.len(), path.display());
    } else {
        let latencies: Vec<f64> = open.iter().map(|d| d.latency_ms()).collect();
        println!(
            "open-loop latency: {} samples, tail = p{TAIL_PCT} with {} samples beyond it",
            latencies.len(),
            stats::beyond(&latencies, TAIL_PCT)
        );
        // The server counts the round trips and prompts that reach its
        // model but not their tokens, so tokens are its prompt count times
        // the replica's tokens per prompt over the same fresh tables.
        let tokens_per_prompt = replica.tokens() as f64 / replica.prompts.max(1) as f64;
        metrics.set("clean_ms_p50", stats::median(&latencies));
        metrics.set("clean_ms_tail", stats::percentile(&latencies, TAIL_PCT));
        metrics.set("cells_per_s", closed_cells as f64 / closed_s);
        metrics.set("llm_round_trips_per_clean", delta("batches") / served);
        metrics.set("llm_tokens_per_clean", delta("batched_prompts") * tokens_per_prompt / served);
        metrics.set("f1", report::pooled_f1(mix.expected.iter().map(|e| e.eval)));
    }
    Outcome { attempted: done.len(), failed, valid, metrics }
}

fn non_empty_median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        stats::median(samples)
    }
}

/// Times the two ingest paths on each warm body, outside the server:
/// the JSON envelope through `api::parse_clean_payload`, and the CSV
/// document pushed through `CsvStream` in upload-sized chunks. Returns
/// the mean over bodies of each path's median of five, in ms.
fn ingest_probes(mix: &Mix, timeline: &SpanRecorder) -> (f64, f64) {
    let (mut json_ms, mut csv_ms) = (0.0, 0.0);
    for body in &mix.warm {
        let mut json_runs = Vec::new();
        let mut csv_runs = Vec::new();
        for _ in 0..5 {
            let start = Instant::now();
            let payload = parse_clean_payload(body.envelope.as_bytes()).expect("JSON body parses");
            let end = Instant::now();
            std::hint::black_box(payload);
            timeline.record("ingest_json", start, end, None);
            json_runs.push((end - start).as_secs_f64() * 1e3);

            let start = Instant::now();
            let mut stream = CsvStream::new();
            for piece in body.csv.as_bytes().chunks(CHUNK) {
                stream.push_bytes(piece).expect("CSV body streams");
            }
            let table = stream.finish_table().expect("CSV body parses");
            let end = Instant::now();
            std::hint::black_box(table);
            timeline.record("ingest_csv_stream", start, end, None);
            csv_runs.push((end - start).as_secs_f64() * 1e3);
        }
        json_ms += stats::median(&json_runs);
        csv_ms += stats::median(&csv_runs);
    }
    let n = mix.warm.len() as f64;
    (json_ms / n, csv_ms / n)
}
