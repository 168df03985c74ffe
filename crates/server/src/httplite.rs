//! The HTTP-lite front-end: classify (`X-Class` header or URL prefix),
//! execute through the PSD dispatch queue, and answer with timing
//! headers so external clients can observe their slowdown.
//!
//! One sharded reactor serves the protocol ([`crate::reactor`]):
//! connections are multiplexed over a few event-loop threads, and PSD
//! workers reply through a completion mailbox + poller wakeup, so
//! hundreds of keep-alive connections cost file descriptors, not
//! threads. [`FrontendConfig::engine`] (surfaced as `--engine` on the
//! binaries) picks its I/O plane:
//!
//! * [`EngineKind::Reactor`] (default) — epoll readiness.
//! * [`EngineKind::Uring`] — an io_uring completion ring, probed at
//!   startup with a fallback to epoll.
//!
//! Both planes run one sans-io connection state machine
//! (`reactor::conn`) over the sans-io parser and serializer in
//! [`crate::codec`], so the wire behavior cannot drift. They share a
//! [`FrontendConfig::max_connections`] cap answered with `503` +
//! `Connection: close`, and a [`FrontendConfig::idle_timeout`] for
//! keep-alive connections. HTTP/1.1 connections are kept alive
//! (`Connection:` headers honored in both directions); HTTP/1.0
//! defaults to close. Parsing is bounded (see the codec's limits), so a
//! hostile client cannot feed the parser unbounded input.
//!
//! This is not a web server — it exists so the "Internet server" in the
//! paper's title is an actual socket-accepting program in the examples,
//! the load-generation harness (`psd-loadgen`) and integration tests.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

pub use crate::codec::{HttpRequest, MAX_BODY_BYTES, MAX_HEADERS, MAX_HEAD_LINE_BYTES};

use crate::classify::classify;
use crate::codec::Response;
use crate::reactor;
use crate::server::{Completion, PsdServer};

/// Which I/O plane the reactor front end runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Sharded epoll event loops multiplexing every connection.
    Reactor,
    /// The same sharded reactor on an io_uring completion plane:
    /// batched SQEs, registered buffers, in-ring doorbell. Requires
    /// kernel support — [`HttpFrontend::start_on_with`] probes at
    /// startup and falls back to [`EngineKind::Reactor`] (with a
    /// logged warning) when the kernel refuses io_uring.
    Uring,
}

impl EngineKind {
    /// Parse a CLI token (`reactor` | `uring`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "reactor" => Some(EngineKind::Reactor),
            "uring" => Some(EngineKind::Uring),
            _ => None,
        }
    }

    /// The CLI token for this engine.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Reactor => "reactor",
            EngineKind::Uring => "uring",
        }
    }
}

/// True when the running kernel accepts io_uring (one cached probe:
/// ring setup + NOP round-trip). [`EngineKind::Uring`] serves on the
/// ring iff this holds; otherwise it falls back to the epoll reactor.
/// Tests and the bench harness use it to self-skip uring cases on
/// kernels (or seccomp sandboxes) without io_uring.
pub fn uring_available() -> bool {
    polling::uring::available()
}

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Which engine serves connections.
    pub engine: EngineKind,
    /// Reactor event-loop shards: connections are assigned round-robin
    /// across this many independent epoll threads, each with its own
    /// poller, connection table and completion mailbox (share-nothing).
    /// Clamped to ≥ 1.
    pub shards: usize,
    /// Most concurrently open connections (across all shards); excess
    /// accepts are answered `503 Service Unavailable` +
    /// `Connection: close` immediately.
    pub max_connections: usize,
    /// Idle keep-alive connections (no request in flight, no bytes
    /// arriving) are closed after this long — slow-loris heads count as
    /// idle too, since only *arriving bytes* refresh the clock.
    pub idle_timeout: Duration,
    /// Cost assigned to requests without a `?cost=` parameter.
    pub default_cost: f64,
}

/// The default reactor shard count: one event loop per core, capped at
/// 4 — beyond that the PSD dispatch core, not the event loops, is the
/// bottleneck.
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            engine: EngineKind::Reactor,
            shards: default_shards(),
            max_connections: 1024,
            idle_timeout: Duration::from_secs(30),
            default_cost: 1.0,
        }
    }
}

/// Map a parsed request onto (class, cost) for the PSD queue. The cost
/// is clamped into the finite band `submit` accepts — `?cost=inf`
/// parses as a valid f64 and would otherwise trip the queue's
/// positivity assert, letting one request panic a serving thread (or
/// the whole reactor loop).
pub(crate) fn class_and_cost(
    server: &PsdServer,
    req: &HttpRequest,
    default_cost: f64,
) -> (usize, f64) {
    let class = classify(&req.path, req.x_class.as_deref(), server.num_classes() - 1).class;
    let mut cost = req.cost.unwrap_or(default_cost);
    if !cost.is_finite() {
        cost = 1.0;
    }
    (class, cost.clamp(1e-3, 1e9))
}

/// Serialize the `200 OK` response the front end sends for an executed
/// request **directly into `out`**, using `scratch` for the body (the
/// head needs the body length first). Both buffers are caller-owned
/// and reused across requests, so the per-request response path
/// allocates nothing — the old `Response`-building version cost a
/// `Vec`, three header `String`s and a body `String` per request,
/// which at reactor rates was the largest allocation source in the
/// server. The wire bytes are identical between I/O planes because
/// both call exactly this function.
pub(crate) fn write_ok_response(
    out: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    req: &HttpRequest,
    class: usize,
    cost: f64,
    done: &Completion,
    keep_alive: bool,
) {
    scratch.clear();
    let _ = writeln!(
        scratch,
        "served path={} class={} cost={:.3} delay_s={:.6} service_s={:.6} slowdown={:.3}",
        req.path,
        class,
        cost,
        done.delay_s,
        done.service_s,
        done.slowdown()
    );
    let proto = if req.http11 { "HTTP/1.1" } else { "HTTP/1.0" };
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(
        out,
        "{proto} 200 OK\r\nContent-Length: {}\r\nConnection: {conn}\r\nX-Class: {class}\r\n\
         X-Delay-Us: {}\r\nX-Slowdown: {:.4}\r\n\r\n",
        scratch.len(),
        (done.delay_s * 1e6) as u64,
        done.slowdown()
    );
    out.extend_from_slice(scratch);
}

/// Record one completed request into the trace ring and the latency
/// histogram. Assembled exactly once, at respond time, from values the
/// response path already has — the only extra work on the hot path is
/// one sampling draw and (when kept) a slot overwrite; no allocation.
/// `total` is admit-to-respond; write-back is whatever of it the queue
/// and the task server cannot account for.
pub(crate) fn record_span(
    server: &PsdServer,
    shard: usize,
    class: usize,
    cost: f64,
    done: &Completion,
    total: Duration,
) {
    let telemetry = server.obs();
    let total_ns = total.as_nanos().min(u64::MAX as u128) as u64;
    let queue_ns = (done.delay_s.max(0.0) * 1e9) as u64;
    let service_ns = (done.service_s.max(0.0) * 1e9) as u64;
    telemetry.spans.record(
        shard,
        psd_obs::SpanRecord {
            seq: 0,
            class: class as u32,
            shard: shard as u32,
            admitted: true,
            cost,
            queue_ns,
            service_ns,
            nominal_ns: (cost * server.work_unit().as_secs_f64() * 1e9) as u64,
            writeback_ns: total_ns.saturating_sub(queue_ns.saturating_add(service_ns)),
        },
    );
    telemetry.observe_latency_ns(class, total_ns);
}

/// Record a request turned away by the admission draw (zero timing
/// stages, `admitted: false`) so `/trace` decompositions account shed
/// load per class.
pub(crate) fn record_shed_span(server: &PsdServer, shard: usize, class: usize, cost: f64) {
    server.obs().spans.record(
        shard,
        psd_obs::SpanRecord {
            seq: 0,
            class: class as u32,
            shard: shard as u32,
            admitted: false,
            cost,
            queue_ns: 0,
            service_ns: 0,
            nominal_ns: (cost * server.work_unit().as_secs_f64() * 1e9) as u64,
            writeback_ns: 0,
        },
    );
}

/// `400 Bad Request`, always closing (malformed head — the framing is
/// unknown, so the HTTP/1.0 status line is the safe common ground).
pub(crate) fn bad_request() -> Response {
    Response::empty(false, 400, "Bad Request", false)
}

/// `503 Service Unavailable`, always closing.
pub(crate) fn service_unavailable(http11: bool) -> Response {
    Response::empty(http11, 503, "Service Unavailable", false)
}

/// The admission-shed response: `503` + `Connection: close` like the
/// saturation answer, but tagged `X-Shed: 1` so load generators can
/// account shed load separately from failures. Closing is deliberate:
/// a shedding server wants the connection's kernel buffers back, and a
/// well-behaved client backs off before reconnecting.
pub(crate) fn shed_response(http11: bool) -> Response {
    let mut resp = Response::empty(http11, 503, "Service Unavailable", false);
    resp.extra_headers.push(("X-Shed", "1".to_string()));
    resp
}

/// A running HTTP front-end with a graceful drain: `shutdown` stops
/// accepting, closes idle keep-alive connections, waits for in-flight
/// requests, and joins the event-loop threads. Construct with
/// [`HttpFrontend::start`] (defaults) or [`HttpFrontend::start_with`]
/// (explicit [`FrontendConfig`]). Dropping it without `shutdown` still
/// stops the event loops and releases the port.
pub struct HttpFrontend {
    addr: SocketAddr,
    reactor: reactor::Handle,
}

impl HttpFrontend {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// the default engine with default limits.
    pub fn start(addr: &str, server: Arc<PsdServer>, default_cost: f64) -> io::Result<Self> {
        Self::start_with(addr, server, FrontendConfig { default_cost, ..FrontendConfig::default() })
    }

    /// Bind `addr` and start the engine selected by `cfg`.
    pub fn start_with(addr: &str, server: Arc<PsdServer>, cfg: FrontendConfig) -> io::Result<Self> {
        Self::start_on_with(TcpListener::bind(addr)?, server, cfg)
    }

    /// Start the engine selected by `cfg` on an already-bound listener.
    pub fn start_on_with(
        listener: TcpListener,
        server: Arc<PsdServer>,
        cfg: FrontendConfig,
    ) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        if cfg.engine == EngineKind::Uring {
            // Probe first (cheap, cached): a kernel without io_uring
            // (ENOSYS), or one that refuses it (seccomp/EPERM),
            // downgrades to the epoll reactor with a warning rather than
            // failing startup — `--engine uring` is a request for the
            // fast path, not a hard requirement. A probe pass followed
            // by a ring-construction failure (e.g. memlock exhaustion)
            // downgrades the same way.
            let why = match polling::uring::probe() {
                Err(why) => format!("io_uring unavailable ({why})"),
                Ok(()) => {
                    let (spare, server, cfg) =
                        (listener.try_clone()?, Arc::clone(&server), cfg.clone());
                    match reactor::Handle::start(spare, server, cfg, reactor::Backend::Uring) {
                        Ok(reactor) => return Ok(Self { addr, reactor }),
                        Err(e) => format!("io_uring engine failed to start ({e})"),
                    }
                }
            };
            eprintln!("psd-server: {why}; falling back to the epoll reactor engine");
        }
        let reactor = reactor::Handle::start(listener, server, cfg, reactor::Backend::Epoll)?;
        Ok(Self { addr, reactor })
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Which engine is **actually** serving — after an io_uring probe
    /// failure this reports [`EngineKind::Reactor`] even though the
    /// config asked for [`EngineKind::Uring`], so callers (and the
    /// harness) can see which plane they measured.
    pub fn engine(&self) -> EngineKind {
        match self.reactor.backend() {
            reactor::Backend::Epoll => EngineKind::Reactor,
            reactor::Backend::Uring => EngineKind::Uring,
        }
    }

    /// Graceful drain: stop accepting, let in-flight requests finish,
    /// close idle keep-alive connections, join the event loops.
    /// Returns the number of connections that failed to finish within
    /// `timeout` — 0 on a clean drain; non-zero leftovers keep the
    /// `PsdServer` `Arc` alive.
    pub fn shutdown(mut self, timeout: Duration) -> io::Result<usize> {
        self.reactor.shutdown(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{PsdServer, ServerConfig};
    use std::io::Read;
    use std::net::TcpStream;

    fn quick_server() -> Arc<PsdServer> {
        Arc::new(PsdServer::start(ServerConfig {
            deltas: vec![1.0],
            work_unit: Duration::from_micros(100),
            ..ServerConfig::default()
        }))
    }

    #[test]
    fn keep_alive_survives_request_bodies() {
        let server = quick_server();
        let fe = HttpFrontend::start("127.0.0.1:0", Arc::clone(&server), 1.0).expect("bind");
        let mut s = TcpStream::connect(fe.addr()).expect("connect");
        // A request with a body, then a second request on the same
        // connection: the body must be drained, not parsed as a head.
        s.write_all(b"POST /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        s.write_all(b"GET /b HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut all = String::new();
        s.read_to_string(&mut all).unwrap();
        let oks = all.matches("HTTP/1.1 200 OK").count();
        assert_eq!(oks, 2, "both requests must answer 200, got:\n{all}");
        assert!(!all.contains("400"), "body bytes must not desync the parser:\n{all}");
        assert_eq!(fe.shutdown(Duration::from_secs(5)).expect("drain"), 0);
        Arc::try_unwrap(server).ok().expect("handlers drained").shutdown();
    }

    #[test]
    fn malformed_head_answers_400() {
        let server = quick_server();
        let fe = HttpFrontend::start("127.0.0.1:0", Arc::clone(&server), 1.0).expect("bind");
        let mut s = TcpStream::connect(fe.addr()).expect("connect");
        s.write_all(b"GET\r\n\r\n").unwrap();
        let mut all = String::new();
        s.read_to_string(&mut all).unwrap();
        assert!(all.starts_with("HTTP/1.0 400"), "got:\n{all}");
        assert_eq!(fe.shutdown(Duration::from_secs(5)).expect("drain"), 0);
        Arc::try_unwrap(server).ok().expect("handlers drained").shutdown();
    }

    #[test]
    fn dropping_frontend_stops_the_accept_loop() {
        let server = quick_server();
        let fe = HttpFrontend::start("127.0.0.1:0", Arc::clone(&server), 1.0).expect("bind");
        let addr = fe.addr();
        // No shutdown(): Drop must still stop the event loops. Once they
        // are gone, fresh connections go unserved: either the connect
        // fails or the socket just closes without a byte.
        drop(fe);
        std::thread::sleep(Duration::from_millis(30));
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
            let _ = s.write_all(b"GET / HTTP/1.0\r\n\r\n");
            let mut buf = [0u8; 16];
            assert!(
                !matches!(s.read(&mut buf), Ok(n) if n > 0),
                "accept loop must be dead after drop"
            );
        }
        Arc::try_unwrap(server).ok().expect("no handlers left").shutdown();
    }
}
