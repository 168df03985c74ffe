//! The sharded epoll reactor engine: connections multiplexed over N
//! independent event-loop threads ("shards"), so concurrency costs file
//! descriptors instead of OS threads and event handling scales across
//! cores without any shared connection state.
//!
//! ```text
//!            ┌─ shard 0 (owns the listener) ──────────────────────────┐
//!  accept ──▶│ epoll { listener, conns, eventfd }                     │
//!            │   round-robin: keep conn, or hand fd to shard k ───────┼──┐
//!            │   readable ─▶ read ─▶ codec ─▶ submit_async ───────────┼──┼─▶ PSD queue
//!            │   eventfd  ─▶ drain completion mailbox ─▶ respond      │◀─┼──────┘
//!            └────────────────────────────────────────────────────────┘  │ worker/wheel
//!            ┌─ shard 1..N-1 ──────────────────────────────────────────┐ │ callback:
//!            │ epoll { conns, eventfd } ◀── inbox: handed-off streams ◀┼─┘ mailbox.push
//!            │   same per-connection state machine, own mailbox        │   + eventfd ring
//!            └─────────────────────────────────────────────────────────┘   (coalesced)
//! ```
//!
//! Share-nothing by construction: each shard owns its poller, its
//! connection table, its completion mailbox, its buffer pool and its
//! scratch vectors. The only cross-shard state is the global live
//! connection counter (for the `max_connections` cap) and the one-way
//! stream handoff inboxes filled by the accepting shard. PSD workers
//! reply through the owning shard's mailbox; the eventfd ring is
//! **coalesced** — a completion only writes the eventfd when it is the
//! first into an empty mailbox, so a burst of completions costs one
//! wakeup, not one syscall each.
//!
//! Each loop iteration reads the clock **once** and stamps every event
//! of that iteration with it (the coarse cached clock); per-connection
//! idle bookkeeping never calls `clock_gettime` itself.
//!
//! The per-connection state machine, idle policy, drain rules and
//! accept handoff live once, sans-io, in [`conn`]; [`shard`] (epoll)
//! and [`uring`] (io_uring) only execute its steps on their I/O plane.
//! Every shard builds its own I/O plane on its own thread — a ring set
//! up on the caller's thread would tie io_uring task-work to it and
//! interrupt its blocking syscalls — and reports setup errors back
//! before any shard serves.

mod conn;
mod shard;
mod uring;

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use polling::{Interest, Poller};
use psd_obs::{ReactorShardStats, UringStats};

use crate::server::{Completion, PsdServer};
use crate::FrontendConfig;

use shard::ShardLoop;
use uring::UringLoop;

/// Which kernel interface drives the shard event loops. Both backends
/// share [`Shared`] (mailbox, inbox, stop/exit protocol) and the
/// per-connection state machine in [`conn`]; only the I/O plane differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backend {
    /// Readiness: `epoll_wait` + per-fd `read`/`write` syscalls.
    Epoll,
    /// Completion: batched SQEs through one `io_uring_enter` per loop
    /// iteration, registered-buffer reads/writes, in-ring doorbell.
    Uring,
}

/// Epoll key of the listener (shard 0 only); connection keys start
/// above it.
pub(crate) const LISTENER_KEY: usize = 0;

/// Event-loop tick: upper bound on idle-sweep latency and stop-flag
/// latency (wakeups via the eventfd make the common paths immediate).
pub(crate) const TICK: Duration = Duration::from_millis(100);

/// During a drain, how long a mid-request connection may go without
/// byte progress before it is closed anyway (see
/// [`conn::Machine::expired_keys`]).
pub(crate) const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// State shared by every shard: the total live connection count backing
/// the `max_connections` cap.
pub(crate) struct Global {
    pub(crate) live: AtomicUsize,
}

/// Accepted streams handed off by the accepting shard, waiting to be
/// registered by the owning shard's loop. `closed` flips (under the
/// same lock) when that loop exits, so a handoff racing the exit is
/// refused instead of stranded — the accepting shard then answers the
/// client itself rather than leaking a live-counter slot.
#[derive(Default)]
pub(crate) struct Inbox {
    pub(crate) streams: Vec<TcpStream>,
    pub(crate) closed: bool,
}

/// Cross-thread state of one shard, shared between its event loop, the
/// PSD completion callbacks targeting its connections, the accepting
/// shard (stream handoffs) and the owning [`Handle`].
pub(crate) struct Shared {
    pub(crate) poller: Poller,
    pub(crate) stop: AtomicBool,
    /// (connection key, completion) pairs posted by PSD executors.
    pub(crate) mailbox: Mutex<Vec<(usize, Completion)>>,
    pub(crate) inbox: Mutex<Inbox>,
    pub(crate) exited: Mutex<bool>,
    pub(crate) exited_cv: Condvar,
    pub(crate) global: Arc<Global>,
    /// This shard's event-loop counters, shared with the admin
    /// exposition (`GET /metrics/prometheus`).
    pub(crate) stats: Arc<ReactorShardStats>,
    /// Ring counters, published only by the uring backend (all-zero
    /// under epoll; the exposition omits them when empty).
    pub(crate) uring_stats: Arc<UringStats>,
}

impl Shared {
    pub(crate) fn new(global: &Arc<Global>) -> io::Result<Self> {
        Ok(Self {
            poller: Poller::new()?,
            stop: AtomicBool::new(false),
            mailbox: Mutex::new(Vec::new()),
            inbox: Mutex::new(Inbox::default()),
            exited: Mutex::new(false),
            exited_cv: Condvar::new(),
            global: Arc::clone(global),
            stats: Arc::new(ReactorShardStats::default()),
            uring_stats: Arc::new(UringStats::default()),
        })
    }

    /// Post a completion for `key` and ring the shard's eventfd only if
    /// the mailbox was empty — completions arriving while a wakeup is
    /// already pending coalesce into the same poller wake.
    pub(crate) fn post_completion(&self, key: usize, done: Completion) {
        let was_empty = {
            let mut mb = self.mailbox.lock();
            let was_empty = mb.is_empty();
            mb.push((key, done));
            was_empty
        };
        if was_empty {
            let _ = self.poller.notify();
        }
    }
}

/// A running reactor front-end. Created through
/// [`crate::HttpFrontend::start_with`] with [`crate::EngineKind::Reactor`].
pub struct Handle {
    shards: Vec<(Arc<Shared>, Option<JoinHandle<()>>)>,
    global: Arc<Global>,
    backend: Backend,
}

impl Handle {
    /// Spawn `cfg.shards` event loops on `backend`; shard 0 owns
    /// `listener` and assigns accepted connections round-robin.
    ///
    /// Each shard sets up its I/O plane (for [`Backend::Uring`], its
    /// ring and registered buffer arena) on its own thread and reports
    /// the result here. No shard serves until all have reported; one
    /// failure stops them all and fails this call, so the caller falls
    /// back to [`Backend::Epoll`] instead of limping half-started.
    pub(crate) fn start(
        listener: TcpListener,
        server: Arc<PsdServer>,
        cfg: FrontendConfig,
        backend: Backend,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let n = cfg.shards.max(1);
        let global = Arc::new(Global { live: AtomicUsize::new(0) });
        let peers =
            (0..n).map(|_| Shared::new(&global).map(Arc::new)).collect::<io::Result<Vec<_>>>()?;
        // The uring backend accepts through a multishot SQE instead of
        // epoll readiness, so only the epoll backend registers the
        // listener with shard 0's poller.
        if backend == Backend::Epoll {
            peers[0].poller.add(listener.as_raw_fd(), LISTENER_KEY, Interest::READABLE)?;
        }
        let (ready_tx, ready) = mpsc::channel::<io::Result<()>>();
        let mut handle = Self { shards: Vec::with_capacity(n), global, backend };
        // Declared after `handle`, so an early return drops the go
        // senders first and the parked shards exit before the join.
        let mut go = Vec::with_capacity(n);
        let mut listener = Some(listener);
        for (i, shared) in peers.iter().enumerate() {
            // Shard 0 keeps the listener itself — the fd moves with it,
            // so no re-registration races.
            let shard_listener = if i == 0 { listener.take() } else { None };
            let (go_tx, go_rx) = mpsc::channel::<()>();
            go.push(go_tx);
            let (peers, server, cfg) = (peers.clone(), Arc::clone(&server), cfg.clone());
            let (shared_for_exit, ready_tx) = (Arc::clone(shared), ready_tx.clone());
            let name = match backend {
                Backend::Epoll => format!("psd-reactor-{i}"),
                Backend::Uring => format!("psd-uring-{i}"),
            };
            let thread = thread::Builder::new().name(name).spawn(move || {
                let setup = match backend {
                    Backend::Epoll => Ok(None),
                    Backend::Uring => uring::new_engine().map(Some),
                };
                match setup {
                    Err(e) => drop(ready_tx.send(Err(e))),
                    Ok(engine) => {
                        let _ = ready_tx.send(Ok(()));
                        if go_rx.recv().is_ok() {
                            match engine {
                                Some(engine) => {
                                    let m = conn::Machine::new(peers, i, server, cfg, backend);
                                    UringLoop::new(shard_listener, m, engine).run();
                                }
                                None => {
                                    let m = conn::Machine::new(peers, i, server, cfg, backend);
                                    ShardLoop::new(shard_listener, m).run();
                                }
                            }
                        }
                    }
                }
                *shared_for_exit.exited.lock() = true;
                shared_for_exit.exited_cv.notify_all();
            })?;
            handle.shards.push((Arc::clone(shared), Some(thread)));
        }
        drop(ready_tx);
        for _ in 0..n {
            // A shard that died before reporting disconnects its sender.
            ready.recv().unwrap_or_else(|_| Err(io::Error::other("reactor shard setup died")))?;
        }
        for tx in go {
            let _ = tx.send(());
        }
        Ok(handle)
    }

    /// Which kernel interface this reactor's shards run on.
    pub(crate) fn backend(&self) -> Backend {
        self.backend
    }

    /// Graceful drain: stop accepting, close idle connections, serve
    /// out in-flight requests, then join every shard. Returns the
    /// number of connections still alive after `timeout` (0 on a clean
    /// drain); non-zero means some loop is still flushing and keeps its
    /// `PsdServer` `Arc`.
    pub(crate) fn shutdown(&mut self, timeout: Duration) -> io::Result<usize> {
        for (shared, _) in &self.shards {
            shared.stop.store(true, Ordering::SeqCst);
            let _ = shared.poller.notify();
        }
        let deadline = Instant::now() + timeout;
        let mut clean = true;
        for (shared, thread) in &mut self.shards {
            let mut exited = shared.exited.lock();
            while !*exited {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                shared.exited_cv.wait_for(&mut exited, deadline - now);
            }
            let this_clean = *exited;
            drop(exited);
            clean &= this_clean;
            if this_clean {
                if let Some(h) = thread.take() {
                    h.join().map_err(|_| io::Error::other("reactor shard panicked"))?;
                }
            }
        }
        if clean {
            Ok(0)
        } else {
            Ok(self.global.live.load(Ordering::SeqCst).max(1))
        }
    }
}

impl Drop for Handle {
    /// Dropping without a shutdown still stops every shard; in-flight
    /// PSD requests complete (the executors are alive until
    /// `PsdServer::shutdown`) so the joins below converge.
    fn drop(&mut self) {
        for (shared, _) in &self.shards {
            shared.stop.store(true, Ordering::SeqCst);
            let _ = shared.poller.notify();
        }
        for (_, thread) in &mut self.shards {
            if let Some(h) = thread.take() {
                let _ = h.join();
            }
        }
    }
}
