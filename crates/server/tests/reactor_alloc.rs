//! The allocation-light acceptance test: a counting global allocator
//! measures steady-state heap allocations per request through the full
//! reactor + timer-wheel path. After warmup (codec/write buffers
//! pooled, scratch vectors grown, wheel slots touched) a keep-alive
//! request must cost only the handful of unavoidable allocations
//! (method/path `String`s in the parsed request, the `submit_async`
//! callback box) — **no per-event scratch growth** in the event loop,
//! no per-line head `String`s, no response-building `String`s, no
//! per-completion channel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use psd_server::{
    EngineKind, FrontendConfig, HttpFrontend, PsdServer, SchedulerKind, ServerConfig, Workload,
};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// One keep-alive exchange on a raw socket with **zero client-side
/// allocation**: a fixed request byte string out, a fixed stack buffer
/// in, and a hand-rolled scan for the response frame — so the counter
/// delta is the server's.
fn exchange(s: &mut TcpStream, req: &[u8], buf: &mut [u8]) {
    s.write_all(req).expect("write");
    let mut filled = 0usize;
    loop {
        let n = s.read(&mut buf[filled..]).expect("read");
        assert!(n > 0, "server closed mid-exchange");
        filled += n;
        let head_end = buf[..filled].windows(4).position(|w| w == b"\r\n\r\n");
        if let Some(end) = head_end {
            let head = std::str::from_utf8(&buf[..end]).expect("utf8 head");
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
            let mut content_length = 0usize;
            for line in head.split("\r\n") {
                if let Some(v) = line.strip_prefix("Content-Length: ") {
                    content_length = v.trim().parse().expect("length");
                }
            }
            if filled >= end + 4 + content_length {
                return;
            }
        }
        assert!(filled < buf.len(), "response larger than the scratch buffer");
    }
}

/// Steady-state keep-alive requests per heap allocation through the
/// reactor on `engine` + the wheel, after a warmup.
fn allocations_per_request(engine: EngineKind) -> f64 {
    let server = Arc::new(PsdServer::start(ServerConfig {
        deltas: vec![1.0, 2.0],
        work_unit: Duration::from_micros(100),
        scheduler: SchedulerKind::RatePartition,
        workload: Workload::Sleep,
        // Idle the allocator during the measured window: its per-window
        // estimator arithmetic is real but irrelevant to the per-event
        // claim under test.
        control_window: Duration::from_secs(60),
        ..ServerConfig::default()
    }));
    let fe = HttpFrontend::start_with(
        "127.0.0.1:0",
        Arc::clone(&server),
        FrontendConfig { engine, shards: 1, ..FrontendConfig::default() },
    )
    .expect("bind reactor");
    assert_eq!(fe.engine(), engine, "no silent fallback");

    let mut s = TcpStream::connect(fe.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    let req = b"GET /class1/hot?cost=0.5 HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
    let mut buf = [0u8; 4096];

    // Warmup: grow every pooled buffer, scratch vector and wheel slot
    // this workload will ever touch.
    const WARMUP: u64 = 200;
    const MEASURED: u64 = 500;
    for _ in 0..WARMUP {
        exchange(&mut s, req, &mut buf);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        exchange(&mut s, req, &mut buf);
    }
    let per_request = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / MEASURED as f64;
    eprintln!("{engine:?} steady-state allocations/request: {per_request:.2}");

    drop(s);
    assert_eq!(fe.shutdown(Duration::from_secs(10)).expect("drain"), 0);
    Arc::try_unwrap(server).ok().expect("released").shutdown();
    per_request
}

/// Steady-state requests through reactor + wheel allocate O(1) — a
/// small constant per request, with no dependence on event count,
/// connection count or payload reads — on both I/O planes, which run
/// the same connection state machine. The uring case self-skips on
/// kernels without io_uring.
#[test]
fn steady_state_request_allocations_are_bounded() {
    let mut engines = vec![EngineKind::Reactor];
    if psd_server::uring_available() {
        engines.push(EngineKind::Uring);
    } else {
        eprintln!("skipping uring case: io_uring unavailable on this kernel");
    }
    for engine in engines {
        let per_request = allocations_per_request(engine);
        // Unavoidable today: request method + path Strings (2), the
        // boxed submit_async callback (1), plus amortized noise. The
        // bound has ~3× headroom over that floor but sits far below the
        // ~15+ of the pre-pooling path — any reintroduced per-event
        // allocation (scratch growth, head-line Strings, response
        // building) trips it.
        assert!(
            per_request <= 10.0,
            "{engine:?}: steady-state request costs {per_request:.1} allocations — \
             the hot path regressed"
        );
    }
}
