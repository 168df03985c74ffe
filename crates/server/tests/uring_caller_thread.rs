//! The uring front end must leave the application thread that starts
//! it alone. A thread that sets up an io_uring ring is tied to the
//! ring's task-work; when the ring is torn down, that thread's blocking
//! syscalls can return `EINTR` — and a read under `SO_RCVTIMEO` does
//! not restart. So neither the capability probe nor the shard rings may
//! be built on the caller's thread.
//!
//! Its own test binary, so this thread is the first in the process to
//! ask for the probe.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use psd_server::{EngineKind, FrontendConfig, HttpFrontend, PsdServer, ServerConfig};

#[test]
fn timed_reads_after_a_uring_frontend_are_not_interrupted() {
    thread::spawn(|| {
        if !psd_server::uring_available() {
            eprintln!("skipping: io_uring unavailable on this kernel");
            return;
        }
        let server = Arc::new(PsdServer::start(ServerConfig {
            deltas: vec![1.0],
            work_unit: Duration::from_micros(100),
            ..ServerConfig::default()
        }));
        let cfg = FrontendConfig { engine: EngineKind::Uring, ..FrontendConfig::default() };
        let fe = HttpFrontend::start_with("127.0.0.1:0", Arc::clone(&server), cfg).expect("bind");
        assert_eq!(fe.engine(), EngineKind::Uring, "probe passed, so no fallback");
        assert_eq!(fe.shutdown(Duration::from_secs(10)).expect("drain"), 0);
        Arc::try_unwrap(server).ok().expect("released").shutdown();

        // An unrelated socket whose data arrives later: the blocking
        // read must wait for it.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut reader = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (mut writer, _) = listener.accept().expect("accept");
        reader.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let late = thread::spawn(move || {
            thread::sleep(Duration::from_millis(300));
            writer.write_all(b"late").expect("write");
            writer
        });
        let mut buf = [0u8; 8];
        let n = reader.read(&mut buf).expect("the timed read returns data, not EINTR");
        assert_eq!(&buf[..n], b"late");
        drop(late.join().expect("writer"));
    })
    .join()
    .expect("caller thread");
}
