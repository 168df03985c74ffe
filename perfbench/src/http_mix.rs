//! `http_mix`: a closed loop over loopback on two keep-alive
//! connections to the front end the workload names: the uring engine
//! (epoll where the kernel refuses io_uring) or the epoll reactor. Connection A sends *bare* PSD requests at the server's
//! cost floor, alternating classes: parse, classify, admit, wheel,
//! completion doorbell, write-back. Connection B sends `/healthz`,
//! answered inline in the event loop. The same I/O plane is used two
//! ways, so a gain on one path that costs the other shows. The
//! inline figures follow the host's speed and are reported at the
//! reference speed of [`crate::host`].
//!
//! The clients allocate nothing per request (fixed request bytes, a
//! reserved receive buffer and sample vector), so the allocation delta
//! over the window is the server's. They run on their own threads,
//! never on the thread that started the front end, and an interrupted
//! socket call is a failure, never retried.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use psd_dist::rng::SplitMix64;
use psd_server::{
    default_shards, uring_available, EngineKind, FrontendConfig, HttpFrontend, PsdServer,
    RequestCodec,
};

use crate::report::{m, Check, PlaneOut};
use crate::spans::{self, Open, Tracer};
use crate::stats::{self, Summary};
use crate::{alloc, host, proc_cpu, psd_open};

/// Connection A's requests, by class.
pub const BARE: [&[u8]; 2] = [
    b"GET /x?cost=0.001 HTTP/1.1\r\nHost: bench\r\nX-Class: 0\r\n\r\n",
    b"GET /x?cost=0.001 HTTP/1.1\r\nHost: bench\r\nX-Class: 1\r\n\r\n",
];
/// Connection B's request.
pub const INLINE: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n";
const SCRAPE: &[u8] = b"GET /metrics/prometheus HTTP/1.1\r\nHost: bench\r\n\r\n";

/// Exchanges per connection before each measured window.
const WARMUP: Duration = Duration::from_millis(30);
/// Rounds per run, each with new client threads on new connections.
/// Where the OS places the two clients, the two shard loops and the
/// wheel on the two CPUs moves a round's inline latencies by up to 3×,
/// so a run samples many placements.
pub const ROUNDS: u32 = 32;
/// Most latency samples kept per connection and second of window.
const SAMPLES_PER_S: usize = 250_000;
/// Connection A pauses a uniform random time below this before each
/// request. Bare requests complete on the wheel's 50 µs tick grid, and an
/// undithered closed loop phase-locks to it: every exchange then takes
/// two ticks or every one three, and which of the two a run locks into
/// flips with a few percent of machine speed. The pause spreads the
/// sends over the tick, so the latency measured is the mean over phases
/// that independent clients see.
const DITHER_NS: u64 = 50_000;
/// Spans each client keeps per round in a traced run; later ones are
/// counted as dropped.
const SPANS_PER_CLIENT: usize = 1 << 14;
/// A response slower than this is a failure, not a sample.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A client-side failure. `Io` carries the error kind as the socket
/// returned it, `Interrupted` included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fail {
    /// A socket call failed.
    Io(io::ErrorKind),
    /// The server closed the connection.
    Closed,
    /// The response could not be framed.
    Malformed(&'static str),
}

/// A framed response: where its head and body sit in the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resp {
    /// Status code.
    pub status: u16,
    /// `X-Class` value, if present and numeric.
    pub class: Option<u8>,
    /// Whether an `X-Slowdown` header is present.
    pub slowdown: bool,
    /// Bytes of status line and headers, including the blank line.
    pub head_len: usize,
    /// `Content-Length`.
    pub body_len: usize,
}

fn digits(v: &[u8]) -> Option<usize> {
    let v = v.trim_ascii();
    if v.is_empty() || !v.iter().all(u8::is_ascii_digit) || v.len() > 12 {
        return None;
    }
    Some(v.iter().fold(0usize, |acc, d| acc * 10 + usize::from(d - b'0')))
}

/// Frame a response head at the start of `b`: `Ok(None)` until the
/// head is complete. Framing follows `Content-Length`, which must be
/// present.
pub fn parse_head(b: &[u8]) -> Result<Option<Resp>, Fail> {
    let Some(end) = b.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = &b[..end];
    let mut lines = head.split(|&c| c == b'\n').map(|l| l.strip_suffix(b"\r").unwrap_or(l));
    let status_line = lines.next().unwrap_or_default();
    if !status_line.starts_with(b"HTTP/1.") || status_line.len() < 12 {
        return Err(Fail::Malformed("status line"));
    }
    let status = digits(&status_line[9..12]).ok_or(Fail::Malformed("status code"))? as u16;
    let (mut class, mut slowdown, mut body_len) = (None, false, None);
    for line in lines {
        let Some(colon) = line.iter().position(|&c| c == b':') else {
            return Err(Fail::Malformed("header line"));
        };
        let (name, value) = (&line[..colon], &line[colon + 1..]);
        if name.eq_ignore_ascii_case(b"content-length") {
            body_len = Some(digits(value).ok_or(Fail::Malformed("content-length"))?);
        } else if name.eq_ignore_ascii_case(b"x-class") {
            class = digits(value).and_then(|c| u8::try_from(c).ok());
        } else if name.eq_ignore_ascii_case(b"x-slowdown") {
            slowdown = true;
        }
    }
    let body_len = body_len.ok_or(Fail::Malformed("no content-length"))?;
    Ok(Some(Resp { status, class, slowdown, head_len: end + 4, body_len }))
}

/// One keep-alive client connection with a reserved receive buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    filled: usize,
}

impl Conn {
    /// Connect with Nagle off and a read timeout.
    pub fn connect(addr: SocketAddr, buf_bytes: usize) -> Result<Self, Fail> {
        let stream = TcpStream::connect(addr).map_err(|e| Fail::Io(e.kind()))?;
        stream.set_nodelay(true).map_err(|e| Fail::Io(e.kind()))?;
        stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| Fail::Io(e.kind()))?;
        Ok(Self { stream, buf: vec![0; buf_bytes], filled: 0 })
    }

    /// Send `req` and frame the response, leaving it at the front of
    /// the buffer until the next exchange. Every socket error fails the
    /// exchange, `Interrupted` included (`write_all` would retry it).
    pub fn exchange(&mut self, req: &[u8]) -> Result<Resp, Fail> {
        self.filled = 0;
        let mut off = 0;
        while off < req.len() {
            match self.stream.write(&req[off..]) {
                Ok(0) => return Err(Fail::Closed),
                Ok(n) => off += n,
                Err(e) => return Err(Fail::Io(e.kind())),
            }
        }
        loop {
            if let Some(r) = parse_head(&self.buf[..self.filled])? {
                let total = r.head_len + r.body_len;
                if total > self.buf.len() {
                    return Err(Fail::Malformed("response larger than the buffer"));
                }
                if self.filled >= total {
                    if self.filled > total {
                        return Err(Fail::Malformed("bytes beyond the framed response"));
                    }
                    return Ok(r);
                }
            } else if self.filled == self.buf.len() {
                return Err(Fail::Malformed("head larger than the buffer"));
            }
            match self.stream.read(&mut self.buf[self.filled..]) {
                Ok(0) => return Err(Fail::Closed),
                Ok(n) => self.filled += n,
                Err(e) => return Err(Fail::Io(e.kind())),
            }
        }
    }

    /// The body of the response `r` just returned by [`Conn::exchange`].
    pub fn body(&self, r: &Resp) -> &[u8] {
        &self.buf[r.head_len..r.head_len + r.body_len]
    }
}

/// Whether a bare response is what the server promises for class `class`.
pub fn bare_ok(r: &Resp, class: u8) -> bool {
    r.status == 200 && r.slowdown && r.class == Some(class)
}

/// Whether an inline `/healthz` response reports the server up.
pub fn inline_ok(r: &Resp, body: &[u8]) -> bool {
    const OK: &[u8] = b"\"status\":\"ok\"";
    r.status == 200 && body.windows(OK.len()).any(|w| w == OK)
}

/// Sum of every Prometheus sample per metric name (labels folded).
fn scrape(conn: &mut Conn) -> Result<BTreeMap<String, f64>, String> {
    let r = conn.exchange(SCRAPE).map_err(|f| format!("scrape: {f:?}"))?;
    let text = std::str::from_utf8(conn.body(&r)).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for s in psd_obs::parse_prometheus(text)? {
        *out.entry(s.name).or_insert(0.0) += s.value;
    }
    Ok(out)
}

/// A running server and front end.
struct Stand {
    server: Arc<PsdServer>,
    frontend: HttpFrontend,
}

/// Start the server and the front end on `engine` (epoll where the
/// kernel refuses io_uring).
fn stand(engine: EngineKind) -> Stand {
    let server = Arc::new(PsdServer::start(psd_open::server_config()));
    let cfg = FrontendConfig { engine, shards: default_shards(), ..FrontendConfig::default() };
    let frontend = HttpFrontend::start_with("127.0.0.1:0", Arc::clone(&server), cfg)
        .expect("front end starts on loopback");
    Stand { server, frontend }
}

impl Stand {
    /// Stop the front end and the server.
    fn teardown(self) {
        let _ = self.frontend.shutdown(Duration::from_secs(2));
        if let Ok(server) = Arc::try_unwrap(self.server) {
            server.shutdown();
        }
    }
}

struct Gates {
    warmed: Barrier,
    scraped: Barrier,
    go: Barrier,
    done: Barrier,
    counted: Barrier,
}

#[derive(Default)]
struct ClientOut {
    lat_ns: Vec<u32>,
    elapsed: Duration,
    attempted: u64,
    io_failed: u64,
    bad: u64,
    first_fail: Option<String>,
    op: [f64; 4],
    /// Allocations this client thread made inside the window.
    allocs: u64,
    scrapes: Vec<BTreeMap<String, f64>>,
    tracer: Option<Tracer>,
}

/// One client connection's closed loop. `inline` selects connection B,
/// which also scrapes `/metrics/prometheus` around the window: after
/// both connections' warm-ups and before the counters the round reads
/// are taken, and again after they are read.
fn client(
    addr: SocketAddr,
    inline: bool,
    seed: u64,
    window: Duration,
    gates: &Gates,
    mut tracer: Tracer,
) -> ClientOut {
    let cap = SAMPLES_PER_S * (window.as_secs() as usize + 1);
    let first_class = (seed & 1) as u8;
    let mut dither = SplitMix64::new(seed);
    let mut out = ClientOut { lat_ns: Vec::with_capacity(cap), ..ClientOut::default() };
    let fail = |out: &mut ClientOut, why: String| {
        out.io_failed += 1;
        out.first_fail.get_or_insert(why);
    };
    let (root_name, buf) = if inline { ("http.inline", 1 << 20) } else { ("http.bare", 1 << 16) };
    let mut conn =
        Conn::connect(addr, buf).map_err(|f| fail(&mut out, format!("connect: {f:?}"))).ok();
    let request =
        |k: u64| if inline { INLINE } else { BARE[usize::from((first_class + k as u8) & 1)] };
    if let Some(c) = conn.as_mut() {
        let until = Instant::now() + WARMUP;
        let mut k = 0;
        while Instant::now() < until {
            if let Err(f) = c.exchange(request(k)) {
                fail(&mut out, format!("warm-up: {f:?}"));
                conn = None;
                break;
            }
            k += 1;
        }
    }
    gates.warmed.wait();
    if let (true, Some(c)) = (inline, conn.as_mut()) {
        match scrape(c) {
            Ok(s) => out.scrapes.push(s),
            Err(e) => fail(&mut out, e),
        }
    }
    gates.scraped.wait();
    gates.go.wait();
    let start = Instant::now();
    let deadline = start + window;
    let allocs0 = alloc::thread_allocations();
    if let Some(c) = conn.as_mut() {
        let mut k = 0u64;
        while out.lat_ns.len() < cap {
            if !inline {
                let pause = Instant::now() + Duration::from_nanos(dither.next_u64() % DITHER_NS);
                while Instant::now() < pause {
                    // Yield, not spin: a spinning client would hold a CPU the
                    // other connection's client or shard loop may need.
                    thread::yield_now();
                }
            }
            let t = Instant::now();
            if t >= deadline {
                break;
            }
            let class = if inline { 0 } else { (first_class + k as u8) & 1 };
            let traced = tracer.on() && k % 2 == 1;
            let root = if traced { tracer.open(k, root_name, Open::NONE) } else { Open::NONE };
            let s = if traced { tracer.open(k, "client.exchange", root) } else { Open::NONE };
            let r = c.exchange(request(k));
            tracer.close(s);
            out.attempted += 1;
            let r = match r {
                Ok(r) => r,
                Err(f) => {
                    tracer.close(root);
                    fail(&mut out, format!("request {k}: {f:?}"));
                    break;
                }
            };
            let ok = if inline { inline_ok(&r, c.body(&r)) } else { bare_ok(&r, class) };
            tracer.close(root);
            let ns = t.elapsed().as_nanos();
            if ok {
                out.lat_ns.push(ns.min(u128::from(u32::MAX)) as u32);
            } else {
                out.bad += 1;
                out.first_fail.get_or_insert_with(|| format!("request {k}: unexpected {r:?}"));
            }
            if tracer.on() {
                let i = if traced { 0 } else { 2 };
                out.op[i] += ns as f64;
                out.op[i + 1] += 1.0;
            }
            k += 1;
        }
    }
    out.elapsed = start.elapsed();
    out.allocs = alloc::thread_allocations() - allocs0;
    gates.done.wait();
    gates.counted.wait();
    if inline {
        if let Some(c) = conn.as_mut() {
            match scrape(c) {
                Ok(s) => out.scrapes.push(s),
                Err(e) => fail(&mut out, e),
            }
        }
    }
    out.tracer = Some(tracer);
    out
}

/// The plane: the first round's server and front end, then the rounds
/// run so far.
pub struct Plane {
    /// The engine the workload asked for.
    engine: EngineKind,
    stand: Stand,
    seed: u64,
    window: Duration,
    trace: bool,
    rounds: Vec<Round>,
    /// The host probe's time before each round (ms).
    probes: Vec<f64>,
}

/// Start the server and front end the rounds share. [`ROUNDS`] rounds
/// fill `budget`.
pub fn setup(seed: u64, budget: Duration, trace: bool, engine: EngineKind) -> Plane {
    let window = (budget / ROUNDS).saturating_sub(WARMUP).max(Duration::from_millis(20));
    Plane {
        engine,
        stand: stand(engine),
        seed,
        window,
        trace,
        rounds: Vec::new(),
        probes: Vec::new(),
    }
}

impl Plane {
    /// Stop the server and front end.
    pub fn teardown(self) {
        self.stand.teardown();
    }

    /// Run the next round: new client threads on new connections,
    /// after a probe of the host's speed.
    pub fn run_round(&mut self) {
        let seed = self.seed.wrapping_add(self.rounds.len() as u64);
        self.probes.push(host::probe_ms());
        self.rounds.push(round(&self.stand, seed, self.window, self.trace));
    }
}

/// Median ns of one `RequestCodec::feed` + `poll` on the client's own
/// request bytes, each parse a `codec.parse` span, and how many of the
/// parses did not yield a request.
fn codec_parse_ns(tracer: &mut Tracer) -> (f64, u64) {
    const PARSES: u64 = 20_000;
    let mut codec = RequestCodec::new();
    let mut failed = 0;
    for i in 0..PARSES {
        let bytes = match i % 3 {
            0 => INLINE,
            k => BARE[k as usize - 1],
        };
        let s = tracer.open(i, "codec.parse", Open::NONE);
        codec.feed(bytes);
        let parsed = codec.poll();
        tracer.close(s);
        if !matches!(parsed, Ok(Some(_))) {
            failed += 1;
            codec = RequestCodec::new();
        }
    }
    let by = spans::self_times_by_name([&*tracer]);
    (by.get("codec.parse").map_or(0.0, |v| stats::median(&mut v.clone())), failed)
}

/// One round's clients, and the counters read around its window.
struct Round {
    a: ClientOut,
    b: ClientOut,
    cpu: (BTreeMap<String, f64>, BTreeMap<String, f64>),
    spans: u64,
    syscalls: u64,
    allocs: u64,
}

/// Run both connections' closed loops for `window` on `stand`.
fn round(stand: &Stand, seed: u64, window: Duration, trace: bool) -> Round {
    let addr = stand.frontend.addr();
    let gates = Gates {
        warmed: Barrier::new(3),
        scraped: Barrier::new(3),
        go: Barrier::new(3),
        done: Barrier::new(3),
        counted: Barrier::new(3),
    };
    let epoch = Instant::now();
    let cap = if trace { SPANS_PER_CLIENT } else { 0 };
    let server = &stand.server;
    thread::scope(|scope| {
        let spawn = |inline: bool, name: &str| {
            let tracer = Tracer::new(trace, epoch, cap);
            let gates = &gates;
            thread::Builder::new()
                .name(name.into())
                .spawn_scoped(scope, move || client(addr, inline, seed, window, gates, tracer))
                .expect("spawn client")
        };
        let a = spawn(false, "bench-client-0");
        let b = spawn(true, "bench-client-1");
        gates.warmed.wait();
        gates.scraped.wait();
        let cpu0 = proc_cpu::by_group();
        let spans0 = server.obs().spans.recorded();
        let sys0 = polling::count::total();
        let allocs0 = alloc::allocations();
        gates.go.wait();
        gates.done.wait();
        let allocs = alloc::allocations() - allocs0;
        let syscalls = polling::count::total() - sys0;
        let spans = server.obs().spans.recorded() - spans0;
        let cpu1 = proc_cpu::by_group();
        gates.counted.wait();
        let (a, b) = (a.join().expect("client A"), b.join().expect("client B"));
        Round { a, b, cpu: (cpu0, cpu1), spans, syscalls, allocs }
    })
}

/// Report the rounds run so far: end-to-end metrics, or the per-layer
/// ledger in a traced run.
pub fn finish(plane: Plane) -> PlaneOut {
    let Plane { engine: requested, stand, mut rounds, trace, mut probes, .. } = plane;
    let engine = stand.frontend.engine();
    stand.teardown();
    let mut out = PlaneOut::default();
    out.notes.push(format!(
        "http_mix engine={} (asked for {}) shards={} uring_available={}",
        engine.as_str(),
        requested.as_str(),
        default_shards(),
        uring_available()
    ));

    // Per round: bare rps, bare p50, inline rps, inline p50; and the
    // bare and inline p99s with the count of rounds whose p99 rests on
    // fewer than ten samples.
    let mut per: [Vec<f64>; 4] = Default::default();
    let mut p99s: [Vec<f64>; 2] = Default::default();
    let mut unresolved = [0usize; 2];
    let (mut bad_a, mut bad_b, mut served_a, mut served_b, mut tried_a, mut tried_b) =
        (0, 0, 0, 0, 0, 0);
    for (r, probe) in rounds.iter().zip(&probes) {
        for (name, c) in [("bare", &r.a), ("inline", &r.b)] {
            out.attempted += c.attempted;
            out.failed += c.io_failed;
            if let Some(why) = &c.first_fail {
                out.notes.push(format!("http_mix {name} failure: {why}"));
            }
        }
        bad_a += r.a.bad + r.a.io_failed;
        bad_b += r.b.bad + r.b.io_failed;
        served_a += r.a.lat_ns.len();
        served_b += r.b.lat_ns.len();
        tried_a += r.a.attempted;
        tried_b += r.b.attempted;
        let (bare_rps, bare) = summary(&r.a);
        let (inline_rps, inline) = summary(&r.b);
        out.notes.push(format!(
            "http_mix round: host probe {probe:.3} ms; bare {bare_rps:.0}/s p50 {:.1} us p99 {:.1} us{}; inline {inline_rps:.0}/s p50 {:.1} us p99 {:.1} us{}",
            bare.p50,
            bare.p99,
            bare.counts(),
            inline.p50,
            inline.p99,
            inline.counts()
        ));
        for (v, x) in per.iter_mut().zip([bare_rps, bare.p50, inline_rps, inline.p50]) {
            v.push(x);
        }
        for ((v, n), s) in p99s.iter_mut().zip(&mut unresolved).zip([bare, inline]) {
            v.push(s.p99);
            *n += usize::from(!s.tail_resolved());
        }
    }
    out.checks.push(Check {
        ops: rounds.iter().map(|r| r.a.bad).sum(),
        ..Check::new(
            "http_mix.bare_responses",
            bad_a == 0,
            format!("{served_a} of {tried_a} bare exchanges answered as expected"),
        )
    });
    out.checks.push(Check {
        ops: rounds.iter().map(|r| r.b.bad).sum(),
        ..Check::new(
            "http_mix.inline_responses",
            bad_b == 0,
            format!("{served_b} of {tried_b} inline exchanges answered as expected"),
        )
    });
    out.notes.push(format!(
        "http_mix p99s resting on fewer than ten samples: {} of {} rounds bare, {} inline",
        unresolved[0],
        rounds.len(),
        unresolved[1]
    ));
    let client_allocs: u64 = rounds.iter().map(|r| r.a.allocs + r.b.allocs).sum();
    out.checks.push(Check::new(
        "http_mix.client_allocation_free",
        client_allocs == 0,
        format!("the clients allocated {client_allocs} times inside the windows"),
    ));
    // Rates and medians are the interquartile mean over rounds. A
    // round's p99 rests on a dozen bare samples or seventy inline ones;
    // a stretch of CPU stolen from the machine inflates it tenfold for
    // a few rounds, so the p99s are the median over rounds.
    let [bare_rps, bare_p50, inline_rps, inline_p50] = per.map(|mut v| stats::aggregate(&mut v));
    let [bare_p99, inline_p99] = p99s.map(|mut v| stats::median(&mut v));
    let probe = stats::median(&mut probes);
    out.notes.push(format!(
        "http_mix inline {inline_rps:.0}/s p50 {inline_p50:.1} us p99 {inline_p99:.1} us with the host probe at {probe:.3} ms"
    ));
    if !trace {
        out.metrics = vec![
            m("bare_rps", bare_rps, "req/s"),
            m("bare_p50_us", bare_p50, "us"),
            m("bare_p99_us", bare_p99, "us"),
            m("inline_rps", host::scale_rate(inline_rps, probe), "req/s"),
            m("inline_p50_us", host::scale_time(inline_p50, probe), "us"),
            m("inline_p99_us", host::scale_time(inline_p99, probe), "us"),
        ];
        return out;
    }

    let reqs = (served_a + served_b).max(1) as f64;
    let tracers: Vec<Tracer> =
        rounds.iter_mut().flat_map(|r| [r.a.tracer.take(), r.b.tracer.take()]).flatten().collect();
    let cpu = |group: &str| {
        rounds.iter().map(|r| proc_cpu::delta(&r.cpu.0, &r.cpu.1, group)).sum::<f64>()
    };
    let reactor_cpu = cpu("psd-uring") + cpu("psd-reactor");
    let client_cpu = cpu("bench-client");
    let d = |name: &str| {
        rounds
            .iter()
            .map(|r| match (r.b.scrapes.first(), r.b.scrapes.get(1)) {
                (Some(x), Some(y)) => y.get(name).unwrap_or(&0.0) - x.get(name).unwrap_or(&0.0),
                _ => 0.0,
            })
            .sum::<f64>()
    };
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    let fixed = d("psd_uring_fixed_reads_total") + d("psd_uring_fixed_writes_total");
    let mut main_tracer = Tracer::new(true, Instant::now(), 20_000);
    let (parse_ns, parse_failed) = codec_parse_ns(&mut main_tracer);
    out.checks.push(Check {
        ops: parse_failed,
        ..Check::new(
            "http_mix.codec_parses",
            parse_failed == 0,
            format!("{parse_failed} of the client's request byte strings failed to parse"),
        )
    });
    let op =
        rounds.iter().fold([0.0; 4], |t, r| [0, 1, 2, 3].map(|i| t[i] + r.a.op[i] + r.b.op[i]));
    let syscalls: u64 = rounds.iter().map(|r| r.syscalls).sum();
    let spans_recorded: u64 = rounds.iter().map(|r| r.spans).sum();
    let allocs: u64 = rounds.iter().map(|r| r.allocs).sum::<u64>() - client_allocs;
    let fell_back = engine != requested;
    let by = spans::self_times_by_name(&tracers);
    let mut self_ns: Vec<f64> =
        ["http.bare", "http.inline"].iter().filter_map(|n| by.get(n)).flatten().copied().collect();
    out.metrics = vec![
        m("reactor.syscalls_per_req", syscalls as f64 / reqs, "count"),
        m("reactor.cpu_us_per_req", reactor_cpu * 1e6 / reqs, "us"),
        m("reactor.wakeups_per_req", d("psd_reactor_wakeups_total") / reqs, "count"),
        m(
            "reactor.events_per_wakeup",
            ratio(d("psd_reactor_events_total"), d("psd_reactor_wakeups_total")),
            "ratio",
        ),
        m(
            "uring.sqes_per_enter",
            ratio(d("psd_uring_sqes_total"), d("psd_uring_enters_total")),
            "ratio",
        ),
        m(
            "uring.cqes_per_wait",
            ratio(d("psd_uring_cqes_total"), d("psd_uring_waits_total")),
            "ratio",
        ),
        m("uring.fixed_hit_ratio", ratio(fixed, fixed + d("psd_uring_plain_ops_total")), "ratio"),
        m("codec.parse_ns", parse_ns, "ns"),
        m("obs.spans_per_req", spans_recorded as f64 / reqs, "count"),
        m("server.allocs_per_req", allocs as f64 / reqs, "count"),
        m("client.http_cpu_us_per_req", client_cpu * 1e6 / reqs, "us"),
        m("client.http_self_ns", stats::median(&mut self_ns), "ns"),
    ];
    if fell_back {
        out.notes.push("http_mix: io_uring refused, served by epoll".to_string());
    }
    if engine != EngineKind::Uring {
        out.notes.push("http_mix: no io_uring engine served, the uring.* metrics read 0".into());
    }
    out.overhead = spans::overhead_pct(op);
    out.spans.extend(tracers.into_iter().map(|t| ("bench-client", t)));
    out.spans.push(("bench-main", main_tracer));
    out
}

/// Goodput (served ÷ window) and latency summary (µs) of one client.
fn summary(c: &ClientOut) -> (f64, Summary) {
    let mut us: Vec<f64> = c.lat_ns.iter().map(|&ns| f64::from(ns) * 1e-3).collect();
    (c.lat_ns.len() as f64 / c.elapsed.as_secs_f64(), Summary::of(&mut us))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_by_content_length() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Class: 1\r\nX-Slowdown: 0.5\r\n\r\nhello";
        let r = parse_head(raw).expect("well formed").expect("complete head");
        assert_eq!(
            r,
            Resp {
                status: 200,
                class: Some(1),
                slowdown: true,
                head_len: raw.len() - 5,
                body_len: 5
            }
        );
        assert!(bare_ok(&r, 1) && !bare_ok(&r, 0));
        assert_eq!(parse_head(&raw[..20]), Ok(None), "head not complete yet");
        assert_eq!(
            parse_head(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n"),
            Err(Fail::Malformed("no content-length"))
        );
        assert_eq!(parse_head(b"SSH-2.0 hi\r\n\r\n"), Err(Fail::Malformed("status line")));
        let health = b"HTTP/1.1 200 OK\r\ncontent-length: 15\r\n\r\n{\"status\":\"ok\"}";
        let r = parse_head(health).expect("ok").expect("complete");
        assert!(inline_ok(&r, &health[r.head_len..]));
        assert!(!inline_ok(&r, b"{\"status\":\"no\"}"));
    }

    #[test]
    fn client_exchanges_allocate_nothing() {
        let stand = stand(EngineKind::Uring);
        let addr = stand.frontend.addr();
        // Not on this thread: it started the front end, and io_uring's
        // task-work notifications interrupt its blocking socket calls.
        let allocated = thread::spawn(move || {
            let mut conn = Conn::connect(addr, 1 << 16).expect("connect");
            for k in 0..50 {
                conn.exchange(BARE[k % 2]).expect("warm-up");
            }
            let before = alloc::thread_allocations();
            for k in 0..400 {
                let class = (k % 2) as u8;
                let r = conn.exchange(BARE[usize::from(class)]).expect("bare");
                assert!(bare_ok(&r, class), "{r:?}");
                let r = conn.exchange(INLINE).expect("inline");
                assert!(inline_ok(&r, conn.body(&r)), "{r:?}");
            }
            alloc::thread_allocations() - before
        })
        .join()
        .expect("client thread");
        assert_eq!(allocated, 0, "the client allocates per request");
        stand.teardown();
    }
}
