//! One io_uring shard: the completion-based twin of [`super::shard`],
//! executing the same [`super::conn`] state machine — but the I/O
//! plane inverts from readiness to completion:
//!
//! * Accepts arrive through one **multishot `ACCEPT`** SQE that stays
//!   armed across completions instead of an epoll-readable listener.
//! * Reads and writes are **submitted up front** into registered fixed
//!   buffers (`READ_FIXED`/`WRITE_FIXED` when the slot sits in the
//!   registered window, plain `READ`/`WRITE` past it); the kernel
//!   reports *finished* I/O, so the loop never calls `read(2)`/
//!   `write(2)` at all.
//! * PSD-worker completions still land in the shard mailbox, but the
//!   eventfd ring is observed by an in-ring **doorbell read** armed on
//!   the poller's notify fd — the wakeup folds into the same
//!   `io_uring_enter` wait as every other completion instead of
//!   costing an `epoll_wait` + `read` round-trip.
//!
//! Everything a loop iteration queued — accept re-arms, reads, response
//! writes, cancels, the doorbell — is flushed by **one**
//! `io_uring_enter` at the top of the next iteration. Under load the
//! syscall count per request approaches 1/batch instead of the epoll
//! engine's several-per-request (`tests/syscall_gate.rs` pins the
//! ordering).
//!
//! Closing inverts too: an fd with in-flight SQEs must outlive them, so
//! `close` cancels the ops (`ASYNC_CANCEL` on the fd) and parks the
//! I/O handle in a *closing* table until the cancelled completions
//! drain; only then does the `TcpStream` drop and its buffer slot
//! return to the engine.

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use polling::uring::{take_accepted_fd, UringEngine};

use crate::server::Completion;

use super::conn::{Machine, Next};
use super::{Shared, TICK};

/// Ring capacity: enough SQEs that a full iteration's batch (reads +
/// writes + re-arms across hundreds of connections) never forces a
/// mid-batch flush.
const ENTRIES: u32 = 1024;
/// Registered fixed-buffer slots per shard; connections past this use
/// engine-owned heap slots with plain opcodes (correct, one fewer fast
/// path).
const FIXED_SLOTS: usize = 128;
/// Bytes per buffer half (one read half + one write half per slot) —
/// matches the epoll shard's 8 KiB stack chunk.
const HALF_BYTES: usize = 8192;

/// Completion-token tags: `token = key << TAG_BITS | tag`.
const TAG_BITS: u32 = 3;
const TAG_READ: u64 = 0;
const TAG_WRITE: u64 = 1;
const TAG_ACCEPT: u64 = 2;
const TAG_DOORBELL: u64 = 3;
const TAG_CANCEL: u64 = 4;

/// `-EAGAIN`: the kernel chose not to poll-arm; resubmit the same op.
const EAGAIN: i32 = -11;

fn token(key: usize, tag: u64) -> u64 {
    ((key as u64) << TAG_BITS) | tag
}

/// Build one shard's engine, on the shard's own thread (see
/// [`super::Handle::start`]).
pub(super) fn new_engine() -> io::Result<UringEngine> {
    UringEngine::new(ENTRIES, FIXED_SLOTS, HALF_BYTES)
}

/// A uring connection's I/O handle: its stream, the engine buffer slot
/// it owns for its lifetime (read half + write half), and its
/// in-flight ops.
pub(super) struct Ring {
    stream: TcpStream,
    slot: usize,
    read_inflight: bool,
    write_inflight: bool,
}

pub(super) struct UringLoop {
    /// Declared first: the engine drops (and quiesces every in-flight
    /// op) while the connection fds are still open.
    engine: UringEngine,
    /// The accepting shard's listener (shard 0 only).
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    m: Machine<Ring>,
    /// Closed connections whose cancelled ops are still draining.
    closing: HashMap<usize, Ring>,
    /// Set when the ring itself fails (enter error, doorbell lost):
    /// the loop exits rather than spin blind.
    dead: bool,
}

impl UringLoop {
    pub(super) fn new(
        listener: Option<TcpListener>,
        m: Machine<Ring>,
        engine: UringEngine,
    ) -> Self {
        Self { engine, listener, shared: m.shared(), m, closing: HashMap::new(), dead: false }
    }

    pub(super) fn run(&mut self) {
        // Permanent SQEs: the doorbell read on the poller's eventfd
        // (cross-thread wakeups fold into the ring wait) and, on the
        // accepting shard, the multishot accept.
        self.arm_doorbell();
        self.arm_accept();
        let mut completions: Vec<(usize, Completion)> = Vec::new();
        let mut streams: Vec<TcpStream> = Vec::new();
        while !self.dead {
            if self.m.draining() {
                self.begin_drain();
                if self.m.is_empty() && self.closing.is_empty() {
                    break;
                }
            }
            // The one syscall of the iteration: flush everything the
            // previous iteration queued (reads, writes, re-arms,
            // cancels) and wait for the first completion or the tick.
            if self.engine.submit_and_wait(Some(TICK)).is_err() {
                break;
            }
            self.m.tick();
            // Reap the whole CQ. Handlers queue follow-up SQEs locally;
            // they ride the next iteration's enter.
            let mut reaped = 0;
            while let Some(c) = self.engine.pop() {
                reaped += 1;
                self.on_cqe(c.token, c.result, c.more);
            }
            self.m.count_events(reaped);
            self.m.take_handoffs(&mut streams);
            for stream in streams.drain(..) {
                self.adopt(stream);
            }
            // PSD executor completions (the doorbell CQE above is what
            // woke us).
            self.m.take_completions(&mut completions);
            for (key, done) in completions.drain(..) {
                if let Some(next) = self.m.on_complete(key, done) {
                    self.apply(key, next);
                }
            }
            let expired = self.m.expired_keys();
            self.close_all(expired);
            self.publish_counters();
        }
        // Loop exit: the engine field precedes the connection tables,
        // so its Drop cancels and reaps every in-flight op while the
        // closing fds are still open.
        self.publish_counters();
        self.m.finish();
    }

    /// Copy the engine's single-threaded meters into the shared atomics
    /// (plain stores — the loop is the only writer).
    fn publish_counters(&self) {
        let c = self.engine.counters();
        let s = &self.shared.uring_stats;
        s.enters.store(c.enters, Ordering::Relaxed);
        s.waits.store(c.waits, Ordering::Relaxed);
        s.sqes.store(c.sqes_submitted, Ordering::Relaxed);
        s.cqes.store(c.cqes_reaped, Ordering::Relaxed);
        s.fixed_reads.store(c.fixed_reads, Ordering::Relaxed);
        s.fixed_writes.store(c.fixed_writes, Ordering::Relaxed);
        s.plain_ops.store(c.plain_ops, Ordering::Relaxed);
    }

    fn arm_doorbell(&mut self) {
        let fd = self.shared.poller.notify_fd();
        self.dead |= self.engine.push_wakeup_read(fd, token(0, TAG_DOORBELL)).is_err();
    }

    fn arm_accept(&mut self) {
        if let Some(listener) = &self.listener {
            self.dead |=
                self.engine.push_accept(listener.as_raw_fd(), token(0, TAG_ACCEPT)).is_err();
        }
    }

    fn on_cqe(&mut self, tok: u64, result: i32, more: bool) {
        let key = (tok >> TAG_BITS) as usize;
        match tok & ((1 << TAG_BITS) - 1) {
            // Someone rang (completion posted, handoff, stop): the
            // mailbox/inbox drains after the reap. Re-arm at once —
            // writes landing between the CQE and the re-arm stick in
            // the eventfd counter, so no wakeup is ever lost.
            TAG_DOORBELL => self.arm_doorbell(),
            TAG_ACCEPT => {
                // A spent multishot must be re-armed by hand; do it
                // first so an error result can't leak the arm.
                if !more && !self.m.draining() {
                    self.arm_accept();
                }
                // result < 0: ECANCELED after a drain, or transient.
                if result >= 0 {
                    if let Some(stream) = self.m.route_accept(take_accepted_fd(result)) {
                        self.adopt(stream);
                    }
                }
            }
            TAG_READ => self.on_read_cqe(key, result),
            TAG_WRITE => self.on_write_cqe(key, result),
            TAG_CANCEL => {} // the cancelled ops' own CQEs do the work
            _ => unreachable!("unknown completion tag"),
        }
    }

    /// Claim a buffer slot and put the first read in flight.
    fn adopt(&mut self, stream: TcpStream) {
        let slot = self.engine.alloc_slot();
        let ring = Ring { stream, slot, read_inflight: false, write_inflight: false };
        let key = self.m.insert(ring);
        self.arm_read(key);
    }

    fn apply(&mut self, key: usize, next: Next) {
        match next {
            Next::Read => self.arm_read(key),
            Next::Write => self.pump_write(key),
            Next::Park => {} // no SQE is in flight while waiting
            Next::Close => self.close(key),
        }
    }

    /// A read or write CQE for a closing connection: retire it once
    /// nothing is in flight. `false` when `key` is not closing.
    fn settle_closing(&mut self, key: usize, write: bool) -> bool {
        let Some(ring) = self.closing.get_mut(&key) else { return false };
        if write {
            ring.write_inflight = false;
        } else {
            ring.read_inflight = false;
        }
        if !ring.read_inflight && !ring.write_inflight {
            let ring = self.closing.remove(&key).expect("present");
            self.engine.release_slot(ring.slot);
        }
        true
    }

    fn on_read_cqe(&mut self, key: usize, result: i32) {
        if self.settle_closing(key, false) {
            return;
        }
        let Some(conn) = self.m.get_mut(key) else { return };
        conn.io.read_inflight = false;
        let next = match result {
            EAGAIN => Next::Read,
            // EOF, a socket error, or (never expected) bytes outside
            // `Reading`: close rather than desynchronize the stream.
            _ if result <= 0 || !conn.reading() => Next::Close,
            n => {
                let slot = conn.io.slot;
                self.m.on_read(key, self.engine.read_slice(slot, n as usize))
            }
        };
        self.apply(key, next);
    }

    /// Put (or re-put) the connection's read SQE in flight.
    fn arm_read(&mut self, key: usize) {
        let Some(conn) = self.m.get_mut(key) else { return };
        if conn.io.read_inflight {
            return;
        }
        let (fd, slot) = (conn.io.stream.as_raw_fd(), conn.io.slot);
        match self.engine.push_read(fd, slot, token(key, TAG_READ)) {
            Ok(()) => conn.io.read_inflight = true,
            Err(_) => self.close(key),
        }
    }

    /// Keep the write pipeline full: queue a write SQE for the front of
    /// the unflushed buffer unless one is already in flight.
    fn pump_write(&mut self, key: usize) {
        let Some(conn) = self.m.get_mut(key) else { return };
        if conn.io.write_inflight {
            return;
        }
        // Disjoint borrows: source bytes in the connection's WriteBuf,
        // destination half in the engine arena (push_write copies, so
        // the response may exceed a half and drain in turns).
        let (fd, slot) = (conn.io.stream.as_raw_fd(), conn.io.slot);
        match self.engine.push_write(fd, slot, conn.out.unflushed(), token(key, TAG_WRITE)) {
            Ok(_) => conn.io.write_inflight = true,
            Err(_) => self.close(key),
        }
    }

    fn on_write_cqe(&mut self, key: usize, result: i32) {
        if self.settle_closing(key, true) {
            return;
        }
        let Some(conn) = self.m.get_mut(key) else { return };
        conn.io.write_inflight = false;
        let next = match result {
            EAGAIN => Next::Write,          // retry the same bytes
            _ if result < 0 => Next::Close, // EPIPE/ECONNRESET: client left
            n => {
                conn.out.consume(n as usize);
                self.m.on_written(key, n as usize)
            }
        };
        self.apply(key, next);
    }

    /// Stop accepting (cancel the multishot accept) and close idle
    /// keep-alives; the rest serve out.
    fn begin_drain(&mut self) {
        if self.m.stop_accepting() {
            if let Some(listener) = &self.listener {
                let _ = self.engine.push_cancel_fd(listener.as_raw_fd(), token(0, TAG_CANCEL));
            }
        }
        let idle = self.m.drain_keys();
        self.close_all(idle);
    }

    fn close_all(&mut self, keys: Vec<usize>) {
        for &key in &keys {
            self.close(key);
        }
        self.m.recycle(keys);
    }

    /// Close a connection. With SQEs in flight the fd must outlive
    /// them: cancel the ops and park the handle in `closing` until
    /// [`Self::settle_closing`] sees the last completion.
    fn close(&mut self, key: usize) {
        let Some(ring) = self.m.remove(key) else { return };
        if ring.read_inflight || ring.write_inflight {
            let _ = self.engine.push_cancel_fd(ring.stream.as_raw_fd(), token(key, TAG_CANCEL));
            self.closing.insert(key, ring);
        } else {
            self.engine.release_slot(ring.slot);
        }
    }
}
