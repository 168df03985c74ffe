//! The per-connection protocol both reactor backends run, sans-io (as
//! [`crate::codec`] is for parsing): the request/response state
//! machine, admission and dispatch, the drain and idle-sweep rules, the
//! accept cap with round-robin handoff, and buffer/live-slot
//! accounting. Nothing here touches a socket. Every event returns the
//! [`Next`] step, and the backend ([`super::shard`] over epoll
//! readiness, [`super::uring`] over io_uring completions) performs it
//! on its own I/O plane.
//!
//! Phases of a connection:
//!
//! * `Reading` — bytes feed the codec until a full request (head +
//!   drained body) is parsed.
//! * `Waiting` — the request sits in the PSD dispatch queue and the
//!   connection has **no I/O armed** ([`Next::Park`]): pipelined bytes
//!   stay in the kernel socket buffer (natural TCP backpressure). The
//!   PSD executor's callback posts into the shard mailbox.
//! * `Flushing` — the write buffer drains, resuming at the exact byte
//!   offset after every short write; then the connection closes or
//!   returns to `Reading`, serving a pipelined request already buffered
//!   without waiting for another byte.
//!
//! Idle policy: only *arriving or departing bytes* refresh a
//! connection's clock, so both a silent keep-alive and a slow-loris
//! drip-feeding a head are reaped after `idle_timeout`. `Waiting`
//! connections are exempt — their latency belongs to the PSD queue,
//! which is the thing under test. During a drain the grace tightens to
//! [`DRAIN_GRACE`] so one stalled client cannot pin the shutdown.
//!
//! Allocation discipline: the machine owns the response-body scratch,
//! the key scratch of sweeps and a pool of retired codec/write buffers,
//! so steady-state handling allocates nothing per event
//! (`tests/reactor_alloc.rs` pins this on both backends). The clock is
//! read once per loop iteration ([`Machine::tick`]).

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use psd_obs::{ReactorShardStats, UringStats};

use crate::admin::AdminInfo;
use crate::codec::{HttpRequest, RequestCodec, Response, WriteBuf};
use crate::httplite::{
    bad_request, class_and_cost, record_shed_span, record_span, service_unavailable, shed_response,
    write_ok_response,
};
use crate::server::{Completion, PsdServer};
use crate::FrontendConfig;

use super::{Backend, Shared, DRAIN_GRACE};

/// How many retired (codec, write) buffer pairs a shard keeps for
/// reuse by future connections.
const POOL_CAP: usize = 256;

/// What the backend must do next with a connection's I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Next {
    /// Wait for more request bytes.
    Read,
    /// Write the unflushed bytes of [`Conn::out`].
    Write,
    /// The request is in the PSD queue: arm no I/O until it completes.
    Park,
    /// Close the connection.
    Close,
}

/// Where a connection is in its request/response cycle.
enum Phase {
    Reading,
    /// `since` is the coarse-clock instant of admission — the span's
    /// total lifetime starts there.
    Waiting {
        req: HttpRequest,
        class: usize,
        cost: f64,
        since: Instant,
    },
    Flushing {
        then_close: bool,
    },
}

/// One connection: the backend's I/O handle plus the protocol state.
pub(super) struct Conn<T> {
    pub(super) io: T,
    pub(super) out: WriteBuf,
    codec: RequestCodec,
    phase: Phase,
    /// Refreshed by transferred bytes only, from the coarse clock.
    last_progress: Instant,
}

impl<T> Conn<T> {
    pub(super) fn reading(&self) -> bool {
        matches!(self.phase, Phase::Reading)
    }

    pub(super) fn flushing(&self) -> bool {
        matches!(self.phase, Phase::Flushing { .. })
    }

    /// Queue `resp` and switch to flushing it.
    fn respond(&mut self, resp: &Response, then_close: bool) -> Next {
        self.out.push_response(resp);
        self.phase = Phase::Flushing { then_close };
        Next::Write
    }
}

/// The protocol half of one shard: its connection table (keyed from 1;
/// 0 is the backends' listener/doorbell key) and everything the
/// request/response cycle needs besides I/O.
pub(super) struct Machine<T> {
    conns: HashMap<usize, Conn<T>>,
    next_key: usize,
    accepting: bool,
    /// Coarse cached clock: every progress stamp and idle comparison
    /// of one loop iteration uses this instant.
    now: Instant,
    shared: Arc<Shared>,
    /// Every shard's shared state, for round-robin handoffs.
    peers: Vec<Arc<Shared>>,
    self_index: usize,
    rr_next: usize,
    server: Arc<PsdServer>,
    cfg: FrontendConfig,
    engine: &'static str,
    pool: Vec<(Vec<u8>, Vec<u8>)>,
    body_scratch: Vec<u8>,
    key_scratch: Vec<usize>,
    stats: Arc<ReactorShardStats>,
    /// Every shard's counters, collected once so the admin
    /// exposition's [`AdminInfo`] costs no allocation per request.
    peer_stats: Vec<Arc<ReactorShardStats>>,
    /// Ring counters per shard; empty under epoll.
    peer_uring_stats: Vec<Arc<UringStats>>,
}

impl<T> Machine<T> {
    pub(super) fn new(
        peers: Vec<Arc<Shared>>,
        self_index: usize,
        server: Arc<PsdServer>,
        cfg: FrontendConfig,
        backend: Backend,
    ) -> Self {
        let shared = Arc::clone(&peers[self_index]);
        let (engine, peer_uring_stats) = match backend {
            Backend::Epoll => ("reactor", Vec::new()),
            Backend::Uring => ("uring", peers.iter().map(|p| Arc::clone(&p.uring_stats)).collect()),
        };
        Self {
            conns: HashMap::new(),
            next_key: 1,
            accepting: true,
            now: Instant::now(),
            stats: Arc::clone(&shared.stats),
            peer_stats: peers.iter().map(|p| Arc::clone(&p.stats)).collect(),
            shared,
            peers,
            self_index,
            rr_next: self_index,
            server,
            cfg,
            engine,
            pool: Vec::new(),
            body_scratch: Vec::new(),
            key_scratch: Vec::new(),
            peer_uring_stats,
        }
    }

    pub(super) fn draining(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Start a loop iteration: one clock read, one wakeup counted.
    pub(super) fn tick(&mut self) {
        self.now = Instant::now();
        self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` I/O events of this iteration.
    pub(super) fn count_events(&self, n: usize) {
        if n > 0 {
            self.stats.events.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    pub(super) fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    pub(super) fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    pub(super) fn get(&self, key: usize) -> Option<&Conn<T>> {
        self.conns.get(&key)
    }

    pub(super) fn get_mut(&mut self, key: usize) -> Option<&mut Conn<T>> {
        self.conns.get_mut(&key)
    }

    /// Adopt a connection (already counted live) around `io`, reusing
    /// pooled buffers. The backend arms its first read.
    pub(super) fn insert(&mut self, io: T) -> usize {
        let key = self.next_key;
        self.next_key += 1;
        let (read_buf, write_buf) = self.pool.pop().unwrap_or_default();
        let conn = Conn {
            io,
            out: WriteBuf::with_buffer(write_buf),
            codec: RequestCodec::with_buffer(read_buf),
            phase: Phase::Reading,
            last_progress: self.now,
        };
        self.conns.insert(key, conn);
        key
    }

    /// Close `key`'s protocol state: buffers back to the pool, live
    /// slot released. The I/O handle comes back for teardown.
    pub(super) fn remove(&mut self, key: usize) -> Option<T> {
        let conn = self.conns.remove(&key)?;
        if self.pool.len() < POOL_CAP {
            self.pool.push((conn.codec.into_buffer(), conn.out.into_buffer()));
        }
        self.shared.global.live.fetch_sub(1, Ordering::SeqCst);
        Some(conn.io)
    }

    /// Route one accepted stream. Past `max_connections` it gets a
    /// best-effort 503 without ever blocking the loop (a fresh socket
    /// buffer always fits 80 bytes; failing that, the close alone is
    /// answer enough). Otherwise it counts as live and goes round-robin
    /// to a shard; the stream comes back when this shard must adopt it
    /// — its own turn, or a peer that already exited (drain race).
    pub(super) fn route_accept(&mut self, mut stream: TcpStream) -> Option<TcpStream> {
        if !self.accepting {
            return None; // raced a drain: refuse by closing
        }
        if self.shared.global.live.load(Ordering::SeqCst) >= self.cfg.max_connections {
            let _ = stream.set_nonblocking(true);
            polling::count::bump(); // write(2)
            let _ = stream.write_all(&service_unavailable(true).to_bytes());
            return None;
        }
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return None;
        }
        self.shared.global.live.fetch_add(1, Ordering::SeqCst);
        self.stats.accepts.fetch_add(1, Ordering::Relaxed);
        let target = self.rr_next % self.peers.len();
        self.rr_next = self.rr_next.wrapping_add(1);
        if target == self.self_index {
            return Some(stream);
        }
        let peer = &self.peers[target];
        let mut inbox = peer.inbox.lock();
        if inbox.closed {
            return Some(stream);
        }
        inbox.streams.push(stream);
        drop(inbox);
        let _ = peer.poller.notify();
        None
    }

    /// Move streams handed off by the accepting shard into `into`.
    pub(super) fn take_handoffs(&self, into: &mut Vec<TcpStream>) {
        let mut inbox = self.shared.inbox.lock();
        if !inbox.streams.is_empty() {
            std::mem::swap(&mut inbox.streams, into);
        }
    }

    /// Move the posted PSD completions into `into` — the whole batch
    /// under one lock, so a burst costs one wakeup and one lock.
    pub(super) fn take_completions(&self, into: &mut Vec<(usize, Completion)>) {
        std::mem::swap(&mut *self.shared.mailbox.lock(), into);
        self.stats.record_drain(into.len() as u64);
    }

    /// Request bytes arrived for `key`.
    pub(super) fn on_read(&mut self, key: usize, data: &[u8]) -> Next {
        let Some(conn) = self.conns.get_mut(&key) else { return Next::Close };
        conn.codec.feed(data);
        conn.last_progress = self.now;
        self.parse(key)
    }

    /// `n` bytes of `key`'s write buffer left for the wire. Once it is
    /// empty the connection closes or serves its next request.
    pub(super) fn on_written(&mut self, key: usize, n: usize) -> Next {
        let Some(conn) = self.conns.get_mut(&key) else { return Next::Close };
        if n > 0 {
            conn.last_progress = self.now;
        }
        if !conn.out.is_empty() {
            return Next::Write;
        }
        match conn.phase {
            Phase::Flushing { then_close: false } => {
                conn.phase = Phase::Reading;
                self.parse(key)
            }
            _ => Next::Close,
        }
    }

    /// The PSD executor finished `key`'s request: encode the response.
    /// `None` for a stale completion (the connection is not waiting).
    pub(super) fn on_complete(&mut self, key: usize, done: Completion) -> Option<Next> {
        let draining = self.draining();
        let conn = self.conns.get_mut(&key)?;
        let (req, class, cost, since) = match std::mem::replace(&mut conn.phase, Phase::Reading) {
            Phase::Waiting { req, class, cost, since } => (req, class, cost, since),
            other => {
                conn.phase = other;
                return None;
            }
        };
        // Stop keeping alive once a drain began so shutdown converges;
        // unframed bodies force a close too.
        let keep = req.keep_alive() && req.framed() && !draining;
        let scratch = &mut self.body_scratch;
        conn.out.append_with(|out| write_ok_response(out, scratch, &req, class, cost, &done, keep));
        // The span's write-back stage is the mailbox + wakeup delivery
        // latency, measured on the coarse per-iteration clock.
        let total = self.now.saturating_duration_since(since);
        record_span(&self.server, self.self_index, class, cost, &done, total);
        conn.phase = Phase::Flushing { then_close: !keep };
        Some(Next::Write)
    }

    /// Serve the next buffered request, if the codec holds a whole one.
    fn parse(&mut self, key: usize) -> Next {
        let Some(conn) = self.conns.get_mut(&key) else { return Next::Close };
        match conn.codec.poll() {
            Ok(Some(req)) => self.begin_request(key, req),
            Ok(None) => Next::Read,
            Err(_) => conn.respond(&bad_request(), true),
        }
    }

    /// Hand a parsed request to the PSD queue and park the connection
    /// until the executor's callback rings back. Admin routes and
    /// admission sheds answer at once and never touch the queue.
    fn begin_request(&mut self, key: usize, req: HttpRequest) -> Next {
        let keep = req.keep_alive() && req.framed() && !self.draining();
        let info = AdminInfo {
            engine: self.engine,
            shard_stats: &self.peer_stats,
            uring_stats: &self.peer_uring_stats,
        };
        let admin = crate::admin::handle(&self.server, &req, keep, &info);
        let Some(conn) = self.conns.get_mut(&key) else { return Next::Close };
        if let Some(resp) = admin {
            return conn.respond(&resp, !resp.keep_alive);
        }
        let (class, cost) = class_and_cost(&self.server, &req, self.cfg.default_cost);
        if !self.server.admit(class, cost) {
            record_shed_span(&self.server, self.self_index, class, cost);
            return conn.respond(&shed_response(req.http11), true);
        }
        let http11 = req.http11;
        conn.phase = Phase::Waiting { req, class, cost, since: self.now };
        let shared = Arc::clone(&self.shared);
        if self.server.submit_async(class, cost, move |done| shared.post_completion(key, done)) {
            Next::Park
        } else {
            // Server already shutting down: answer 503 and close.
            conn.respond(&service_unavailable(http11), true)
        }
    }

    /// First call after the stop flag: `true` when the backend must
    /// stop its listener.
    pub(super) fn stop_accepting(&mut self) -> bool {
        std::mem::replace(&mut self.accepting, false)
    }

    /// Connections a drain closes at once: idle keep-alives between
    /// requests. Mid-request heads or bodies, `Waiting` and `Flushing`
    /// connections serve out under the [`DRAIN_GRACE`] sweep.
    pub(super) fn drain_keys(&mut self) -> Vec<usize> {
        let mut keys = std::mem::take(&mut self.key_scratch);
        keys.extend(
            self.conns
                .iter()
                .filter(|(_, c)| c.reading() && !c.codec.is_mid_request())
                .map(|(&k, _)| k),
        );
        keys
    }

    /// Connections without byte progress for `idle_timeout` (tightened
    /// to [`DRAIN_GRACE`] during a drain): silent keep-alives,
    /// slow-loris heads, clients that stopped reading. `Waiting` is
    /// exempt.
    pub(super) fn expired_keys(&mut self) -> Vec<usize> {
        let mut timeout = self.cfg.idle_timeout;
        if self.draining() {
            timeout = timeout.min(DRAIN_GRACE);
        }
        let now = self.now;
        let mut keys = std::mem::take(&mut self.key_scratch);
        keys.extend(
            self.conns
                .iter()
                .filter(|(_, c)| {
                    !matches!(c.phase, Phase::Waiting { .. })
                        && now.saturating_duration_since(c.last_progress) >= timeout
                })
                .map(|(&k, _)| k),
        );
        self.stats.sweeps.fetch_add(1, Ordering::Relaxed);
        if !keys.is_empty() {
            self.stats.swept.fetch_add(keys.len() as u64, Ordering::Relaxed);
        }
        keys
    }

    /// Hand a key list from [`Self::drain_keys`] or
    /// [`Self::expired_keys`] back for reuse.
    pub(super) fn recycle(&mut self, mut keys: Vec<usize>) {
        keys.clear();
        self.key_scratch = keys;
    }

    /// Loop exit: release the live slot of every connection left and
    /// of every stream handed off but never adopted. The inbox closes
    /// under its lock, so a racing handoff either lands before this
    /// drain or sees `closed` and stays with the accepting shard.
    pub(super) fn finish(&mut self) {
        let leftover = {
            let mut inbox = self.shared.inbox.lock();
            inbox.closed = true;
            std::mem::take(&mut inbox.streams)
        };
        let released = self.conns.len() + leftover.len();
        self.conns.clear();
        drop(leftover);
        self.shared.global.live.fetch_sub(released, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::Global;
    use crate::server::ServerConfig;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn machine() -> Machine<()> {
        let global = Arc::new(Global { live: AtomicUsize::new(0) });
        let shared = Arc::new(Shared::new(&global).expect("poller"));
        let server = Arc::new(PsdServer::start(ServerConfig {
            deltas: vec![1.0],
            work_unit: Duration::from_micros(50),
            ..ServerConfig::default()
        }));
        Machine::new(vec![shared], 0, server, FrontendConfig::default(), Backend::Epoll)
    }

    /// Stop the server behind `m`; queued requests drain first.
    fn teardown(m: Machine<()>) {
        let server = Arc::clone(&m.server);
        drop(m);
        Arc::try_unwrap(server).ok().expect("machine dropped").shutdown();
    }

    /// A connection as an accept would open it (live slot counted).
    fn open(m: &mut Machine<()>) -> usize {
        m.shared.global.live.fetch_add(1, Ordering::SeqCst);
        m.insert(())
    }

    /// Block until the PSD executor posts `key`'s completion.
    fn completion(m: &Machine<()>, key: usize) -> Completion {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut mailbox = m.shared.mailbox.lock();
            if let Some(i) = mailbox.iter().position(|(k, _)| *k == key) {
                return mailbox.remove(i).1;
            }
            drop(mailbox);
            assert!(Instant::now() < deadline, "no completion for {key}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Play the backend's part of a flush: every pending byte written.
    fn flush(m: &mut Machine<()>, key: usize) -> (String, Next) {
        let out = &mut m.get_mut(key).unwrap().out;
        let wire = String::from_utf8(out.unflushed().to_vec()).unwrap();
        let n = out.pending();
        out.consume(n);
        (wire, m.on_written(key, n))
    }

    #[test]
    fn pipelined_request_dispatches_after_the_flush_without_new_bytes() {
        let mut m = machine();
        let k = open(&mut m);
        let two = b"GET /p1 HTTP/1.1\r\n\r\nGET /p2 HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert_eq!(m.on_read(k, two), Next::Park);
        let done = completion(&m, k);
        assert_eq!(m.on_complete(k, done), Some(Next::Write));
        let (wire, next) = flush(&mut m, k);
        assert!(wire.starts_with("HTTP/1.1 200 OK") && wire.contains("path=/p1"), "{wire}");
        assert!(wire.contains("Connection: keep-alive"), "{wire}");
        assert_eq!(next, Next::Park, "/p2 is already buffered: dispatched, not read");
        let done = completion(&m, k);
        assert_eq!(m.on_complete(k, done), Some(Next::Write));
        let (wire, next) = flush(&mut m, k);
        assert!(wire.contains("path=/p2") && wire.contains("Connection: close"), "{wire}");
        assert_eq!(next, Next::Close);
        teardown(m);
    }

    #[test]
    fn malformed_head_answers_400_then_closes() {
        let mut m = machine();
        let k = open(&mut m);
        assert_eq!(m.on_read(k, b"GET\r\n\r\n"), Next::Write);
        let (wire, next) = flush(&mut m, k);
        assert!(wire.starts_with("HTTP/1.0 400 Bad Request"), "{wire}");
        assert_eq!(next, Next::Close);
        assert_eq!(m.remove(k), Some(()));
        assert_eq!(m.shared.global.live.load(Ordering::SeqCst), 0, "live slot released");
        teardown(m);
    }

    /// One connection per phase: idle `Reading`, mid-request `Reading`,
    /// `Waiting` and `Flushing` (an admin response not yet written).
    fn one_of_each(m: &mut Machine<()>) -> [usize; 4] {
        let idle = open(m);
        let partial = open(m);
        assert_eq!(m.on_read(partial, b"GET /slow HTTP/1.1\r\nX-Cl"), Next::Read);
        let waiting = open(m);
        assert_eq!(m.on_read(waiting, b"GET /w?cost=200 HTTP/1.1\r\n\r\n"), Next::Park);
        let flushing = open(m);
        assert_eq!(m.on_read(flushing, b"GET /healthz HTTP/1.1\r\n\r\n"), Next::Write);
        [idle, partial, waiting, flushing]
    }

    #[test]
    fn drain_closes_only_idle_keep_alives() {
        let mut m = machine();
        let [idle, ..] = one_of_each(&mut m);
        m.shared.stop.store(true, Ordering::SeqCst);
        assert!(m.stop_accepting());
        assert!(!m.stop_accepting(), "the listener stops once");
        assert_eq!(m.drain_keys(), vec![idle]);
        teardown(m);
    }

    #[test]
    fn idle_sweep_exempts_waiting() {
        let mut m = machine();
        let [idle, partial, _waiting, flushing] = one_of_each(&mut m);
        assert!(m.expired_keys().is_empty(), "nothing is stale yet");
        m.now += m.cfg.idle_timeout;
        let mut keys = m.expired_keys();
        keys.sort_unstable();
        assert_eq!(keys, vec![idle, partial, flushing]);
        teardown(m);
    }

    #[test]
    fn stale_completion_is_ignored() {
        let mut m = machine();
        let k = open(&mut m);
        let stale = Completion { delay_s: 0.0, service_s: 1e-3 };
        assert_eq!(m.on_complete(k, stale), None);
        assert!(m.get(k).unwrap().reading(), "phase untouched");
        assert_eq!(m.on_read(k, b"GET /healthz HTTP/1.1\r\n\r\n"), Next::Write);
        let queued = m.get(k).unwrap().out.pending();
        assert_eq!(m.on_complete(k, stale), None);
        assert!(m.get(k).unwrap().flushing(), "phase untouched");
        assert_eq!(m.get(k).unwrap().out.pending(), queued, "no response appended");
        assert_eq!(m.on_complete(k + 1, stale), None, "unknown key");
        teardown(m);
    }
}
