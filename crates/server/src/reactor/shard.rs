//! One epoll reactor shard: a single-threaded readiness loop that
//! executes the [`super::conn`] state machine's steps for a subset of
//! the connections (assigned round-robin by the accepting shard).
//!
//! The steps map onto registrations: [`Next::Read`] is read interest,
//! [`Next::Write`] writes now and takes write interest only after a
//! short write, and [`Next::Park`] deregisters the fd altogether.
//! Deregistering — not registering with empty interest — matters:
//! epoll reports ERR/HUP regardless of interest, so a client that
//! aborts while its request is queued would otherwise level-trigger a
//! busy loop until the PSD executor completes.
//!
//! The loop owns its scratch (poller events, drained completions,
//! handed-off streams), so steady-state event handling allocates
//! nothing per event.

use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;

use polling::{Event, Interest};

use crate::server::Completion;

use super::conn::{Machine, Next};
use super::{Shared, LISTENER_KEY, TICK};

/// An epoll connection's I/O handle.
pub(super) struct Sock {
    stream: TcpStream,
    /// The interest registered with the poller; `None` while parked.
    registration: Option<Interest>,
}

pub(super) struct ShardLoop {
    /// The accepting shard's listener (shard 0 only).
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    m: Machine<Sock>,
}

impl ShardLoop {
    pub(super) fn new(listener: Option<TcpListener>, m: Machine<Sock>) -> Self {
        Self { listener, shared: m.shared(), m }
    }

    pub(super) fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut completions: Vec<(usize, Completion)> = Vec::new();
        let mut streams: Vec<TcpStream> = Vec::new();
        loop {
            if self.m.draining() {
                self.begin_drain();
                if self.m.is_empty() {
                    break;
                }
            }
            if self.shared.poller.wait(&mut events, Some(TICK)).is_err() {
                break; // poller gone: nothing recoverable
            }
            self.m.tick();
            self.m.count_events(events.len());
            self.m.take_handoffs(&mut streams);
            for stream in streams.drain(..) {
                self.adopt(stream);
            }
            // Completions first: they free connections for new reads
            // and are the latency-critical path.
            self.m.take_completions(&mut completions);
            for (key, done) in completions.drain(..) {
                if let Some(next) = self.m.on_complete(key, done) {
                    self.apply(key, next);
                }
            }
            for ev in &events {
                if ev.key == LISTENER_KEY {
                    self.accept_ready();
                    continue;
                }
                if ev.readable && self.m.get(ev.key).is_some_and(|c| c.reading()) {
                    self.on_readable(ev.key);
                }
                if ev.writable && self.m.get(ev.key).is_some_and(|c| c.flushing()) {
                    self.flush(ev.key);
                }
            }
            let expired = self.m.expired_keys();
            self.close_all(expired);
        }
        self.m.finish();
    }

    /// Stop accepting and close idle keep-alives; the rest serve out.
    fn begin_drain(&mut self) {
        if self.m.stop_accepting() {
            if let Some(listener) = &self.listener {
                let _ = self.shared.poller.delete(listener.as_raw_fd());
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

    fn accept_ready(&mut self) {
        // Taken for the loop so `adopt` can borrow `self`.
        let Some(listener) = self.listener.take() else { return };
        loop {
            polling::count::bump(); // accept(2)
            match listener.accept() {
                Ok((stream, _)) => {
                    if let Some(stream) = self.m.route_accept(stream) {
                        self.adopt(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock, or transient: next tick
            }
        }
        self.listener = Some(listener);
    }

    fn adopt(&mut self, stream: TcpStream) {
        let key = self.m.insert(Sock { stream, registration: None });
        self.apply(key, Next::Read);
    }

    fn apply(&mut self, key: usize, next: Next) {
        match next {
            Next::Read => self.set_interest(key, Interest::READABLE),
            Next::Write => self.flush(key),
            Next::Park => {
                let Some(conn) = self.m.get_mut(key) else { return };
                if conn.io.registration.take().is_some() {
                    let _ = self.shared.poller.delete(conn.io.stream.as_raw_fd());
                }
            }
            Next::Close => self.close(key),
        }
    }

    fn on_readable(&mut self, key: usize) {
        let mut chunk = [0u8; 8192];
        loop {
            let Some(conn) = self.m.get_mut(key) else { return };
            polling::count::bump(); // read(2)
            let next = match conn.io.stream.read(&mut chunk) {
                Ok(0) => Next::Close,
                Ok(n) => match self.m.on_read(key, &chunk[..n]) {
                    Next::Read => continue, // need more bytes
                    next => next,
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => Next::Close,
            };
            return self.apply(key, next);
        }
    }

    fn flush(&mut self, key: usize) {
        let Some(conn) = self.m.get_mut(key) else { return };
        let before = conn.out.pending();
        // One bump per flush attempt (flush_into may issue several
        // write(2)s — undercounting epoll is the conservative side of
        // the syscall-gate comparison).
        polling::count::bump();
        let Ok(drained) = conn.out.flush_into(&mut conn.io.stream) else {
            return self.close(key);
        };
        let wrote = before - conn.out.pending();
        match self.m.on_written(key, wrote) {
            Next::Write if !drained => self.set_interest(key, Interest::WRITABLE),
            next => self.apply(key, next),
        }
    }

    /// (Re)register the fd with `interest`, adding it back if parked.
    fn set_interest(&mut self, key: usize, interest: Interest) {
        let Some(conn) = self.m.get_mut(key) else { return };
        let fd = conn.io.stream.as_raw_fd();
        let result = match conn.io.registration {
            Some(current) if current == interest => return,
            Some(_) => self.shared.poller.modify(fd, key, interest),
            None => self.shared.poller.add(fd, key, interest),
        };
        match result {
            Ok(()) => conn.io.registration = Some(interest),
            // Registration lost (shouldn't happen): drop the connection
            // rather than wedge it.
            Err(_) => self.close(key),
        }
    }

    fn close(&mut self, key: usize) {
        if let Some(sock) = self.m.remove(key) {
            if sock.registration.is_some() {
                let _ = self.shared.poller.delete(sock.stream.as_raw_fd());
            }
        }
    }
}
