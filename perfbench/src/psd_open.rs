//! `psd_open`: the paper's traffic through the server's public API, in
//! process, as an open loop. One generator thread sends Poisson
//! arrivals of two classes (δ = 1:2, 50/50, BP(1.5, 0.5, 10) costs)
//! through `admit` + `submit_async` to a `RatePartition` + `Sleep`
//! server (the timer wheel), climbing a staircase of nominal loads on
//! one server, then repeating the reference load on fresh servers. A
//! front end holds one request in flight per connection, so only an
//! in-process generator builds real per-class queues with the few
//! connections a two-CPU machine allows; the I/O plane is bypassed. Every
//! reference round opens with its own warm-up, so the caller may
//! interleave the rounds with other work.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use psd_core::{ClassConfig, PsdConfig};
use psd_dist::rng::{open01, SplitMix64, Xoshiro256pp};
use psd_dist::{BoundedPareto, ServiceDist, ServiceDistribution};
use psd_server::{timing, Completion, PsdServer, SchedulerKind, ServerConfig, Workload};

use crate::pacing::{self, LATE_P99_LIMIT};
use crate::proc_cpu;
use crate::report::{m, Check, PlaneOut};
use crate::spans::{self, Open, Tracer};
use crate::stats::{self, Summary};

/// Wall-clock length of one work unit.
pub const WORK_UNIT: Duration = Duration::from_micros(250);
/// The staircase of nominal loads ρ.
pub const RHOS: [f64; 8] = [0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95];
/// The ramp step whose load (ρ = 0.6) the reference rounds repeat.
pub const REF_STEP: usize = 1;
const DELTAS: [f64; 2] = [1.0, 2.0];
/// Allowed relative deviation of S1/S0 from δ1/δ0.
const RATIO_BAND: f64 = 0.25;
/// Standard errors (or deviations) by which a step's measurement must
/// clear a limit before the step fails on it: see
/// [`StepResult::ratio_in_band`] and [`StepResult::slack`].
const Z: f64 = 3.0;
/// Batches a window is cut into for the standard error of S1/S0.
const BATCHES: usize = 8;
/// Independent rounds at the reference load, each on a fresh server for
/// one ramp unit. Where the OS places the generator, wheel and monitor
/// threads on the two CPUs shifts latencies by tens of percent for the
/// life of a server, and heavy-tailed costs make one window's p99 swing
/// with a single long busy period, so the reported latencies aggregate
/// several servers' windows.
pub const REF_ROUNDS: usize = 8;
/// Share of the machine's CPU the hypervisor may steal during a
/// reference round before the round's latencies are set aside.
const STEAL_LIMIT: f64 = 0.01;
/// Reference rounds the latencies are read from at least: the least
/// stolen ones when fewer keep under [`STEAL_LIMIT`].
const MIN_QUIET: usize = REF_ROUNDS / 2;
/// Pooled p99 latency limit of a passing step.
const P99_LIMIT_MS: f64 = 50.0;
/// Goodput must reach the offered rate but for this share of it.
const SHORTFALL: f64 = 0.01;
/// Leading part of each step left out of its measurement window, while
/// the controller's estimator settles on the new load (at most a
/// quarter of the step).
const WARM: Duration = Duration::from_millis(500);
/// How long after a step ends its requests get to complete before the
/// step is judged; anything later has missed the p99 limit anyway.
const EVAL_GRACE: Duration = Duration::from_millis(150);

const PENDING: u8 = 0;
const SUBMITTED: u8 = 1;
const REFUSED: u8 = 2;

fn cost_dist() -> BoundedPareto {
    BoundedPareto::new(1.5, 0.5, 10.0).expect("valid Bounded Pareto")
}

/// Nominal capacity 1/(E[cost]·work unit), ≈ 3396 req/s.
pub fn capacity_rps() -> f64 {
    1.0 / (cost_dist().mean() * WORK_UNIT.as_secs_f64())
}

/// Eq. 17's expected per-class slowdowns at total load `rho`.
fn expected_slowdowns(rho: f64) -> Vec<f64> {
    let classes = DELTAS.iter().map(|&delta| ClassConfig { delta, load: rho / 2.0 }).collect();
    PsdConfig::new(classes, ServiceDist::BoundedPareto(cost_dist()))
        .expected_slowdowns()
        .unwrap_or_else(|_| vec![f64::NAN; DELTAS.len()])
}

/// The server configuration shared with `http_mix`. `mean_cost` is the
/// allocator's E[X]; left at its default of 1 it would understate this
/// workload's load by 15 % and skew Eq. 17 against class 1.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        mean_cost: cost_dist().mean(),
        scheduler: SchedulerKind::RatePartition,
        workload: Workload::Sleep,
        work_unit: WORK_UNIT,
        ..ServerConfig::default()
    }
}

/// The generated arrival schedule of one drive: Poisson arrivals at
/// load `rho`, due offsets from the drive's start (ascending), classes
/// and costs, and the measurement window after the warm-up.
struct Inputs {
    rho: f64,
    due_ns: Vec<u64>,
    class: Vec<u8>,
    cost: Vec<f64>,
    ws_ns: u64,
    end_ns: u64,
}

/// Poisson arrivals at load `rho` for `len`.
fn inputs(seed: u64, rho: f64, len: Duration) -> Inputs {
    let mut rng = Xoshiro256pp::seed_from(SplitMix64::derive(seed, 0x505D));
    let bp = cost_dist();
    let expected = (rho * capacity_rps() * len.as_secs_f64() * 1.1) as usize;
    let mut inp = Inputs {
        rho,
        due_ns: Vec::with_capacity(expected),
        class: Vec::with_capacity(expected),
        cost: Vec::with_capacity(expected),
        ws_ns: WARM.min(len / 4).as_nanos() as u64,
        end_ns: len.as_nanos() as u64,
    };
    let mean_gap_ns = 1e9 / (rho * capacity_rps());
    let mut t = 0.0;
    loop {
        t += -open01(&mut rng).ln() * mean_gap_ns;
        if t >= inp.end_ns as f64 {
            break;
        }
        inp.due_ns.push(t as u64);
        inp.class.push(u8::from(rng.next_f64() < 0.5));
        inp.cost.push(bp.sample(&mut rng));
    }
    inp
}

/// Per-request record, written by the generator (send side) and the
/// completion callback (done side).
#[derive(Default)]
struct Slot {
    state: AtomicU8,
    sent_ns: AtomicU64,
    rate_bits: AtomicU64,
    done_ns: AtomicU64,
    delay_bits: AtomicU64,
    service_bits: AtomicU64,
}

struct Ledger {
    t0: Instant,
    slots: Vec<Slot>,
    fired: AtomicU64,
}

/// The plane: the ramp's server and every schedule, then the drives
/// made so far.
pub struct Plane {
    ramp_server: PsdServer,
    /// Each ramp step's schedule, and the one a retry of it runs.
    ramp: Vec<(Inputs, Inputs)>,
    rounds: Vec<Inputs>,
    margin: Duration,
    trace: bool,
    ramp_drives: Vec<Drive>,
    /// First tries of ramp steps that did not pass and were run again.
    retried: Vec<Drive>,
    round_drives: Vec<Drive>,
}

/// Ramp units the plane takes when no step fails: one per ramp step
/// and one per reference round (a failed step takes one more).
pub const UNITS: u32 = (RHOS.len() + REF_ROUNDS) as u32;

/// Build the plane: calibrate the sleep overshoot, generate the ramp's
/// and the reference rounds' schedules, start the ramp's server. Each
/// reference round starts its own server when it runs.
pub fn setup(seed: u64, unit: Duration, trace: bool) -> Plane {
    let margin = pacing::spin_margin(timing::calibrate_sleep_overshoot());
    let schedule = |stream: u64, rho: f64| inputs(SplitMix64::derive(seed, stream), rho, unit);
    Plane {
        ramp_server: PsdServer::start(server_config()),
        ramp: RHOS
            .iter()
            .enumerate()
            .map(|(k, &rho)| (schedule(k as u64, rho), schedule(50 + k as u64, rho)))
            .collect(),
        rounds: (0..REF_ROUNDS as u64).map(|r| schedule(100 + r, RHOS[REF_STEP])).collect(),
        margin,
        trace,
        ramp_drives: Vec::new(),
        retried: Vec::new(),
        round_drives: Vec::new(),
    }
}

impl Plane {
    /// Stop the ramp's server.
    pub fn teardown(self) {
        self.ramp_server.shutdown();
    }

    /// Drive the ramp on the ramp's server, step after step, until a
    /// step stops it or the staircase ends. The steps follow each other
    /// without a pause: after one, the controller's estimate sits near
    /// the next step's load, as it would under a rising real load. A
    /// step that fails, or that the generator could not keep to, runs
    /// once more on a fresh schedule, and only a second failure stops
    /// the ramp: on a shared host a few seconds in which the wheel or
    /// generator thread is held off the CPU spoil any step, and one such
    /// stretch would otherwise set the knee.
    pub fn run_ramp(&mut self) {
        for (first, retry) in &self.ramp {
            let mut d = drive(&self.ramp_server, first, self.margin, self.trace);
            if !d.result.pass() {
                let again = drive(&self.ramp_server, retry, self.margin, self.trace);
                self.retried.push(std::mem::replace(&mut d, again));
            }
            let stop = stops_ramp(&d.result);
            self.ramp_drives.push(d);
            if stop {
                break;
            }
        }
    }

    /// Drive the next reference round on a fresh server.
    pub fn run_round(&mut self) {
        let server = PsdServer::start(server_config());
        let inp = &self.rounds[self.round_drives.len()];
        self.round_drives.push(drive(&server, inp, self.margin, self.trace));
        server.shutdown();
    }
}

/// One judged step of the ramp.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResult {
    /// Nominal load.
    pub rho: f64,
    /// Arrivals due inside the window per second.
    pub offered_rps: f64,
    /// Completions inside the window per second.
    pub goodput_rps: f64,
    /// Refused or never-completed requests due inside the window.
    pub failures: u64,
    /// Mean outstanding requests over the first and last quarter of the window.
    pub backlog: [f64; 2],
    /// Standard deviation of the outstanding requests across the window
    /// about their least-squares line: the queue's fluctuation without
    /// its trend, so that growth cannot widen its own slack.
    pub backlog_sd: f64,
    /// Length of the window (s).
    pub window_s: f64,
    /// Mean slowdown per class.
    pub slowdown: [f64; 2],
    /// Standard error of S1/S0 (jackknife over batches of the window).
    pub ratio_se: f64,
    /// (slowdown sum, completions) per class in each batch of the window.
    pub batches: [[(f64, u64); 2]; BATCHES],
    /// Arrivals due inside the window.
    pub arrivals: u64,
    /// Latency from due, per class and pooled (ms).
    pub latency: [Summary; 3],
    /// Generator lateness, send − due (µs), and its maximum.
    pub late: Summary,
    /// Largest lateness (µs).
    pub late_max_us: f64,
    /// Offered work as a share of capacity.
    pub work_rho: f64,
}

impl StepResult {
    /// S1/S0.
    pub fn ratio(&self) -> f64 {
        self.slowdown[1] / self.slowdown[0]
    }

    /// Whether S1/S0 is consistent with δ1/δ0 ± 25 %: a step fails on
    /// the ratio only when it lies outside the band by more than
    /// [`Z`] standard errors. A few thousand heavy-tailed
    /// requests estimate S1/S0 only to about ±0.4 at ρ = 0.6, so a
    /// bare point test fails steps by chance (one in three ramps on
    /// this workload) and makes the knee a draw.
    pub fn ratio_in_band(&self) -> bool {
        in_band(self.ratio(), self.ratio_se)
    }

    /// Requests by which the queue may grow over the window, or
    /// completions fall short of arrivals, before the step fails: the
    /// 1 % of arrivals that the goodput rule tolerates, or [`Z`] times
    /// the queue's own fluctuation, whichever is larger. A heavy-tailed
    /// job holds a class's queue for milliseconds, which swings it by
    /// tens of requests within a window at any load; under overload the
    /// shortfall grows with the window and clears this slack.
    pub fn slack(&self) -> f64 {
        (SHORTFALL * self.arrivals as f64).max(Z * self.backlog_sd).max(10.0)
    }

    /// Whether completions fell short of arrivals by more than the slack.
    pub fn goodput_short(&self) -> bool {
        (self.offered_rps - self.goodput_rps) * self.window_s > self.slack()
    }

    /// Whether the outstanding requests grew over the window by more
    /// than the slack.
    pub fn backlog_growing(&self) -> bool {
        self.backlog[1] - self.backlog[0] > self.slack()
    }

    /// Whether the generator kept to the schedule.
    pub fn valid(&self) -> bool {
        self.late.p99 <= LATE_P99_LIMIT.as_secs_f64() * 1e6
    }

    /// The reasons this step does not count, empty when it passes.
    pub fn faults(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.failures > 0 {
            out.push("failures");
        }
        if self.goodput_short() {
            out.push("goodput");
        }
        if self.backlog_growing() {
            out.push("backlog");
        }
        if !self.ratio_in_band() {
            out.push("ratio");
        }
        if self.latency[2].p99 > P99_LIMIT_MS {
            out.push("p99");
        }
        if !self.valid() {
            out.push("generator-late");
        }
        out
    }

    /// Whether the step meets every condition.
    pub fn pass(&self) -> bool {
        self.faults().is_empty()
    }
}

/// Whether S1/S0 = `ratio` with standard error `se` is within [`Z`]
/// standard errors of the band δ1/δ0 ± [`RATIO_BAND`].
fn in_band(ratio: f64, se: f64) -> bool {
    let target = DELTAS[1] / DELTAS[0];
    let (lo, hi) = (target * (1.0 - RATIO_BAND), target * (1.0 + RATIO_BAND));
    ratio - Z * se <= hi && ratio + Z * se >= lo
}

/// Whether a step ends the ramp: it failed, and not only because the
/// generator fell behind. A step the generator could not keep to is
/// invalid: it gives no verdict on the server either way.
pub fn stops_ramp(step: &StepResult) -> bool {
    step.valid() && !step.pass()
}

/// Index of the knee: the highest passing step below the first step
/// that fails, invalid steps giving no verdict.
pub fn knee(steps: &[StepResult]) -> Option<usize> {
    let run = steps.iter().position(stops_ramp).unwrap_or(steps.len());
    steps[..run].iter().rposition(StepResult::pass)
}

fn ns_since(t0: Instant, at: Instant) -> u64 {
    pacing::since_due_ns(t0, at)
}

/// The generator: pace each arrival to its due instant, then admit and
/// submit it. With tracing on, odd arrivals are traced and even ones
/// are not, so the tracing overhead is measured inside one run.
fn generate(
    server: &PsdServer,
    inp: &Inputs,
    ledger: &Arc<Ledger>,
    margin: Duration,
    tracer: &mut Tracer,
) -> (f64, [f64; 4]) {
    let cpu0 = proc_cpu::by_group();
    let mut rates = server.control().rates();
    let mut rates_at = Instant::now();
    // [traced ns, traced ops, untraced ns, untraced ops]
    let mut op = [0.0f64; 4];
    for i in 0..inp.due_ns.len() {
        let due = ledger.t0 + Duration::from_nanos(inp.due_ns[i]);
        let sent = pacing::pace_until(due, margin);
        if sent.duration_since(rates_at) > Duration::from_millis(5) {
            rates = server.control().rates();
            rates_at = sent;
        }
        let (class, cost) = (usize::from(inp.class[i]), inp.cost[i]);
        let slot = &ledger.slots[i];
        slot.sent_ns.store(ns_since(ledger.t0, sent), Ordering::Relaxed);
        slot.rate_bits.store(rates[class].to_bits(), Ordering::Relaxed);
        let traced = tracer.on() && i % 2 == 1;
        let id = i as u64;
        let root = if traced { tracer.open(id, "gen.arrival", Open::NONE) } else { Open::NONE };
        let s = if traced { tracer.open(id, "server.admit", root) } else { Open::NONE };
        let admitted = server.admit(class, cost);
        tracer.close(s);
        let state = if admitted {
            let l = Arc::clone(ledger);
            let s = if traced { tracer.open(id, "server.submit_async", root) } else { Open::NONE };
            let ok = server.submit_async(class, cost, move |c: Completion| {
                let slot = &l.slots[i];
                slot.delay_bits.store(c.delay_s.to_bits(), Ordering::Relaxed);
                slot.service_bits.store(c.service_s.to_bits(), Ordering::Relaxed);
                slot.done_ns.store(ns_since(l.t0, Instant::now()).max(1), Ordering::Release);
                l.fired.fetch_add(1, Ordering::Release);
            });
            tracer.close(s);
            if ok {
                SUBMITTED
            } else {
                REFUSED
            }
        } else {
            REFUSED
        };
        tracer.close(root);
        slot.state.store(state, Ordering::Release);
        if tracer.on() {
            let k = if traced { 0 } else { 2 };
            op[k] += sent.elapsed().as_nanos() as f64;
            op[k + 1] += 1.0;
        }
    }
    let cpu = proc_cpu::delta(&cpu0, &proc_cpu::by_group(), "bench-gen");
    (cpu, op)
}

/// Index range of the arrivals due inside the measurement window.
fn window(inp: &Inputs) -> std::ops::Range<usize> {
    inp.due_ns.partition_point(|&d| d < inp.ws_ns)..inp.due_ns.partition_point(|&d| d < inp.end_ns)
}

/// Latency from due (ms) of arrival `i` as seen at `eval_ns`, with its
/// slowdown; a refused or unfinished request is infinitely late.
fn outcome(inp: &Inputs, ledger: &Ledger, i: usize, eval_ns: u64) -> Option<(f64, f64)> {
    let slot = &ledger.slots[i];
    let done = slot.done_ns.load(Ordering::Acquire);
    if slot.state.load(Ordering::Acquire) != SUBMITTED || done == 0 || done > eval_ns {
        return None;
    }
    let delay = f64::from_bits(slot.delay_bits.load(Ordering::Relaxed));
    let service = f64::from_bits(slot.service_bits.load(Ordering::Relaxed));
    Some(((done - inp.due_ns[i]) as f64 * 1e-6, delay / service.max(1e-9)))
}

/// S1/S0 over batches of (slowdown sum, count) per class, with its
/// jackknife standard error.
pub fn ratio_with_se(batches: &[[(f64, u64); 2]]) -> (f64, f64) {
    let total = batches.iter().fold([(0.0, 0u64); 2], |mut t, b| {
        for c in 0..2 {
            t[c].0 += b[c].0;
            t[c].1 += b[c].1;
        }
        t
    });
    let ratio = |t: [(f64, u64); 2]| (t[1].0 / t[1].1 as f64) / (t[0].0 / t[0].1 as f64);
    let r = ratio(total);
    let loo: Vec<f64> = batches
        .iter()
        .map(|b| {
            ratio([
                (total[0].0 - b[0].0, total[0].1 - b[0].1),
                (total[1].0 - b[1].0, total[1].1 - b[1].1),
            ])
        })
        .collect();
    let n = loo.len() as f64;
    let mean = stats::mean(&loo);
    let var = (n - 1.0) / n * loo.iter().map(|x| (x - mean).powi(2)).sum::<f64>();
    (r, var.sqrt())
}

/// Judge the step of `inp` at `eval_ns` (ns since the drive started).
fn judge(inp: &Inputs, ledger: &Ledger, eval_ns: u64) -> StepResult {
    let (ws, we) = (inp.ws_ns, inp.end_ns);
    let window_s = (we - ws) as f64 * 1e-9;
    let range = window(inp);
    let (a, b) = (range.start, range.end);

    let mut lat: [Vec<f64>; 3] = Default::default();
    let mut late = Vec::with_capacity(b - a);
    let mut batches = [[(0.0f64, 0u64); 2]; BATCHES];
    let (mut failures, mut work) = (0u64, 0.0f64);
    for i in a..b {
        let slot = &ledger.slots[i];
        let class = usize::from(inp.class[i]);
        work += inp.cost[i];
        if slot.state.load(Ordering::Acquire) != PENDING {
            late.push((slot.sent_ns.load(Ordering::Relaxed) - inp.due_ns[i]) as f64 * 1e-3);
        }
        let ms = match outcome(inp, ledger, i, eval_ns) {
            Some((ms, slowdown)) => {
                let batch =
                    ((inp.due_ns[i] - ws) as usize * BATCHES / (we - ws) as usize).min(BATCHES - 1);
                batches[batch][class].0 += slowdown;
                batches[batch][class].1 += 1;
                ms
            }
            None => {
                failures += 1;
                f64::INFINITY // a refused or unfinished request misses every limit
            }
        };
        lat[class].push(ms);
        lat[2].push(ms);
    }
    let (ratio, ratio_se) = ratio_with_se(&batches);
    let slowdown = [0, 1].map(|c| {
        let (s, n) = batches.iter().fold((0.0, 0u64), |t, b| (t.0 + b[c].0, t.1 + b[c].1));
        s / n as f64
    });
    debug_assert!(
        (slowdown[1] / slowdown[0] - ratio).abs() <= 1e-9 * ratio.abs().max(1.0) || ratio.is_nan()
    );

    // Completions inside the window, and outstanding requests sampled
    // across it (sent, not yet done), from the ledger's timestamps.
    const SAMPLES: usize = 16;
    let mut outstanding = [0u64; SAMPLES];
    let mut completed = 0u64;
    for slot in &ledger.slots[..b] {
        if slot.state.load(Ordering::Acquire) == PENDING {
            continue;
        }
        let sent = slot.sent_ns.load(Ordering::Relaxed);
        let done = match slot.done_ns.load(Ordering::Acquire) {
            0 => u64::MAX,
            d => d,
        };
        if (ws..we).contains(&done) {
            completed += 1;
        }
        for (j, o) in outstanding.iter_mut().enumerate() {
            let t = ws + (we - ws) * j as u64 / (SAMPLES as u64 - 1);
            if sent <= t && done > t {
                *o += 1;
            }
        }
    }
    let q = SAMPLES / 4;
    let outstanding = outstanding.map(|o| o as f64);
    let late_max_us = late.iter().copied().fold(0.0, f64::max);
    let [l0, l1, l2] = &mut lat;
    StepResult {
        rho: inp.rho,
        offered_rps: (b - a) as f64 / window_s,
        goodput_rps: completed as f64 / window_s,
        failures,
        backlog: [stats::mean(&outstanding[..q]), stats::mean(&outstanding[SAMPLES - q..])],
        backlog_sd: stats::detrended_sd(&outstanding),
        window_s,
        slowdown,
        ratio_se,
        batches,
        arrivals: (b - a) as u64,
        latency: [Summary::of(l0), Summary::of(l1), Summary::of(l2)],
        late: Summary::of(&mut late),
        late_max_us,
        work_rho: work * WORK_UNIT.as_secs_f64() / window_s,
    }
}

/// Wheel overrun (µs) of the requests due in the window:
/// measured service minus cost·work_unit/r_i at the published rate.
fn overruns(inp: &Inputs, ledger: &Ledger) -> Vec<f64> {
    window(inp)
        .filter(|&i| ledger.slots[i].done_ns.load(Ordering::Acquire) != 0)
        .map(|i| {
            let slot = &ledger.slots[i];
            let service = f64::from_bits(slot.service_bits.load(Ordering::Relaxed));
            let rate = f64::from_bits(slot.rate_bits.load(Ordering::Relaxed));
            (service - inp.cost[i] * WORK_UNIT.as_secs_f64() / rate) * 1e6
        })
        .collect()
}

/// What one drive of the generator against one server produced.
struct Drive {
    result: StepResult,
    ledger: Arc<Ledger>,
    submitted: u64,
    refused: u64,
    fired: u64,
    /// Completions `ServerStats` counted over the drive.
    server_completed: u64,
    gen_cpu_s: f64,
    op: [f64; 4],
    /// Wheel `[wakeups, fires, cascades]` over the drive.
    wheel: [u64; 3],
    wheel_cpu_s: f64,
    /// Share of the machine's CPU stolen by the hypervisor over the drive.
    steal: f64,
    tracer: Tracer,
}

/// Drive `server` at the load of `inp`, judge the step when it ends, and
/// drain.
fn drive(server: &PsdServer, inp: &Inputs, margin: Duration, trace: bool) -> Drive {
    let n = inp.due_ns.len();
    let completed = || server.stats().classes.iter().map(|c| c.completed).sum::<u64>();
    let (wheel0, completed0) = (wheel_counters(server), completed());
    let (cpu0, steal0) = (proc_cpu::by_group(), proc_cpu::steal());
    let t0 = Instant::now() + Duration::from_millis(20);
    let ledger = Arc::new(Ledger {
        t0,
        slots: (0..n).map(|_| Slot::default()).collect(),
        fired: AtomicU64::new(0),
    });
    let mut tracer = Tracer::new(trace, t0, if trace { 3 * n } else { 0 });
    let (result, (gen_cpu_s, op)) = thread::scope(|scope| {
        let gen = thread::Builder::new()
            .name("bench-gen".into())
            .spawn_scoped(scope, || generate(server, inp, &ledger, margin, &mut tracer))
            .expect("spawn generator");
        timing::sleep_until(t0 + Duration::from_nanos(inp.end_ns) + EVAL_GRACE);
        let result = judge(inp, &ledger, ns_since(t0, Instant::now()));
        (result, gen.join().expect("generator thread"))
    });

    // Drain: every submitted request's callback must fire.
    let count = |state| {
        ledger.slots.iter().filter(|s| s.state.load(Ordering::Acquire) == state).count() as u64
    };
    let (submitted, refused) = (count(SUBMITTED), count(REFUSED));
    let drain_until = Instant::now() + Duration::from_secs(30);
    while ledger.fired.load(Ordering::Acquire) < submitted && Instant::now() < drain_until {
        thread::sleep(Duration::from_millis(5));
    }
    let fired = ledger.fired.load(Ordering::Acquire);
    let wheel1 = wheel_counters(server);
    let wheel_cpu_s = proc_cpu::delta(&cpu0, &proc_cpu::by_group(), "psd-wheel");
    let steal = match (steal0, proc_cpu::steal()) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        _ => 0.0,
    };
    Drive {
        result,
        ledger,
        submitted,
        refused,
        fired,
        server_completed: completed() - completed0,
        gen_cpu_s,
        op,
        wheel: [0, 1, 2].map(|i| wheel1[i] - wheel0[i]),
        wheel_cpu_s,
        steal,
        tracer,
    }
}

/// Indices of the reference rounds the latencies are read from, given
/// the share of CPU stolen during each: every round under
/// [`STEAL_LIMIT`], or the [`MIN_QUIET`] least stolen when fewer are.
/// Stolen time holds the wheel thread off the CPU and queues every
/// class behind it; the program cannot cause it.
pub fn quiet_rounds(steal: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    idx.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let quiet = steal.iter().filter(|&&s| s <= STEAL_LIMIT).count();
    idx.truncate(quiet.max(MIN_QUIET));
    idx
}

fn step_note(r: &StepResult) -> String {
    let faults = r.faults();
    format!(
        "rho={:.2} offered={:.0}/s goodput={:.0}/s S1/S0={:.3}±{:.3} p50={:.2}/{:.2} ms p99={:.2} ms{} \
         late p50/p99/max={:.1}/{:.1}/{:.1} us backlog {:.1}->{:.1} {}",
        r.rho,
        r.offered_rps,
        r.goodput_rps,
        r.ratio(),
        r.ratio_se,
        r.latency[0].p50,
        r.latency[1].p50,
        r.latency[2].p99,
        r.latency[2].counts(),
        r.late.p50,
        r.late.p99,
        r.late_max_us,
        r.backlog[0],
        r.backlog[1],
        if faults.is_empty() {
            "pass".to_string()
        } else if r.valid() {
            format!("FAIL {faults:?}")
        } else {
            format!("INVALID {faults:?}")
        },
    )
}

/// Report the ramp and the reference rounds run so far: end-to-end
/// metrics, or the per-layer ledger in a traced run.
pub fn finish(plane: Plane) -> PlaneOut {
    let Plane { ramp_server, ramp_drives, retried, round_drives, rounds, trace, .. } = plane;
    ramp_server.shutdown();
    let drives: Vec<&Drive> = ramp_drives.iter().chain(&retried).chain(&round_drives).collect();

    let mut out = PlaneOut::default();
    for d in &drives {
        out.attempted += d.submitted + d.refused;
        out.failed += d.refused + (d.submitted - d.fired.min(d.submitted));
    }
    let steps: Vec<StepResult> = ramp_drives.iter().map(|d| d.result.clone()).collect();
    for d in &retried {
        out.notes.push(format!("psd_open step, first try {}", step_note(&d.result)));
    }
    for r in &steps {
        out.notes.push(format!("psd_open step {}", step_note(r)));
    }
    let knee = knee(&steps);
    out.notes.push(format!(
        "psd_open knee at {}",
        knee.map_or("no step".to_string(), |k| format!(
            "rho={} ({:.0} req/s)",
            steps[k].rho, steps[k].goodput_rps
        ))
    ));
    // The reference rounds: one step each, at RHOS[REF_STEP]. The
    // ratio check and the latencies count the quiet ones.
    for d in &round_drives {
        out.notes.push(format!(
            "psd_open reference round {} steal {:.2}%",
            step_note(&d.result),
            d.steal * 100.0
        ));
    }
    let quiet = quiet_rounds(&round_drives.iter().map(|d| d.steal).collect::<Vec<_>>());
    let refs: Vec<&StepResult> = quiet.iter().map(|&i| &round_drives[i].result).collect();
    out.notes.push(format!(
        "psd_open counts {} of {} reference rounds: CPU steal at most {}%, or the least stolen half",
        refs.len(),
        round_drives.len(),
        STEAL_LIMIT * 100.0
    ));
    let batches: Vec<[(f64, u64); 2]> = refs.iter().flat_map(|r| r.batches).collect();
    let (ratio, se) = ratio_with_se(&batches);
    out.checks.push(Check::new(
        "psd_open.ratio_in_band",
        in_band(ratio, se),
        format!(
            "S1/S0 = {ratio:.3} ± {se:.3} (1 s.e.) over {} quiet reference rounds at rho = {}, band {} ± {:.0}%",
            refs.len(),
            RHOS[REF_STEP],
            DELTAS[1] / DELTAS[0],
            RATIO_BAND * 100.0
        ),
    ));
    let (submitted, fired, server_completed) = drives
        .iter()
        .fold((0, 0, 0), |t, d| (t.0 + d.submitted, t.1 + d.fired, t.2 + d.server_completed));
    out.checks.push(Check::new(
        "psd_open.callbacks_fired",
        fired == submitted,
        format!("{fired} of {submitted} callbacks fired"),
    ));
    out.checks.push(Check::new(
        "psd_open.completions_match_server",
        server_completed == fired,
        format!("client {fired} vs ServerStats {server_completed}"),
    ));

    let per_round = |f: fn(&StepResult) -> f64| {
        let mut v: Vec<f64> = refs.iter().map(|r| f(r)).collect();
        stats::aggregate(&mut v)
    };
    // At ρ = 0.6 class 1's virtual server is 69 % busy, so a host that
    // delays the wheel thread stretches every service and inflates the
    // tail superlinearly: the same server reads p99 = 8 ms in one round
    // and 17 ms in the next. The latencies reported are the lower
    // quartile over the quiet rounds, the server as the least disturbed
    // quarter of them saw it; a change to the server moves every round.
    let undisturbed = |f: fn(&StepResult) -> f64| {
        let mut v: Vec<f64> = refs.iter().map(|r| f(r)).collect();
        v.sort_by(f64::total_cmp);
        stats::quantile(&v, 0.25)
    };
    if !trace {
        out.metrics = vec![
            m("knee_rps", knee.map_or(0.0, |k| steps[k].goodput_rps), "req/s"),
            m("c0_p50_ms", undisturbed(|r| r.latency[0].p50), "ms"),
            m("c1_p50_ms", undisturbed(|r| r.latency[1].p50), "ms"),
        ];
        return out;
    }

    let work_rho = per_round(|r| r.work_rho);
    let expected = expected_slowdowns(work_rho);
    let slowdown = [0, 1].map(|c| {
        let (s, n) = batches.iter().fold((0.0, 0u64), |t, b| (t.0 + b[c].0, t.1 + b[c].1));
        s / n as f64
    });
    let mut over: Vec<f64> =
        rounds.iter().zip(&round_drives).flat_map(|(inp, d)| overruns(inp, &d.ledger)).collect();
    let over = Summary::of(&mut over);
    let wheel = drives.iter().fold([0u64; 3], |t, d| [0, 1, 2].map(|i| t[i] + d.wheel[i]));
    let fires = wheel[1].max(1) as f64;
    let sent = out.attempted.max(1) as f64;
    let gen_cpu_s: f64 = drives.iter().map(|d| d.gen_cpu_s).sum();
    let wheel_cpu_s: f64 = drives.iter().map(|d| d.wheel_cpu_s).sum();
    let by = spans::self_times_by_name(drives.iter().map(|d| &d.tracer));
    let med = |name: &str| by.get(name).map_or(0.0, |v| stats::median(&mut v.clone()));
    let late_p99 = drives.iter().map(|d| d.result.late.p99).fold(0.0, f64::max);
    let late_max = drives.iter().map(|d| d.result.late_max_us).fold(0.0, f64::max);
    out.metrics = vec![
        // The reference p99 moves with the CPU the host steals more than
        // with the server (0.12 to 0.50 of its median between runs), so
        // it is in the ledger rather than gated.
        m("p99_ms", undisturbed(|r| r.latency[2].p99), "ms"),
        m("server.admit_ns", med("server.admit"), "ns"),
        m("server.submit_ns", med("server.submit_async"), "ns"),
        m("client.gen_self_ns", med("gen.arrival"), "ns"),
        m("wheel.overrun_p50_us", over.p50, "us"),
        m("wheel.overrun_p99_us", over.p99, "us"),
        m("wheel.wakeups_per_fire", wheel[0] as f64 / fires, "ratio"),
        m("wheel.cascades_per_fire", wheel[2] as f64 / fires, "ratio"),
        m("wheel.cpu_us_per_req", wheel_cpu_s * 1e6 / fires, "us"),
        m("control.ratio_s1_s0", ratio, "ratio"),
        m("control.model_gap_c0", slowdown[0] / expected[0], "ratio"),
        m("control.model_gap_c1", slowdown[1] / expected[1], "ratio"),
        m("client.gen_late_p50_us", per_round(|r| r.late.p50), "us"),
        m("client.gen_late_p99_us", late_p99, "us"),
        m("client.gen_late_max_us", late_max, "us"),
        m("client.cpu_us_per_req", gen_cpu_s * 1e6 / sent, "us"),
    ];
    let op = drives.iter().fold([0.0; 4], |t, d| [0, 1, 2, 3].map(|i| t[i] + d.op[i]));
    out.overhead = spans::overhead_pct(op);
    out.spans.extend(
        ramp_drives.into_iter().chain(retried).chain(round_drives).map(|d| ("bench-gen", d.tracer)),
    );
    out
}

/// `[wakeups, fires, cascades]` of the server's timer wheel.
fn wheel_counters(server: &PsdServer) -> [u64; 3] {
    let Some((w, _)) = server.wheel_stats() else { return [0; 3] };
    [
        w.wakeups.load(Ordering::Relaxed),
        w.fires.load(Ordering::Relaxed),
        w.cascades.load(Ordering::Relaxed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A step that meets every condition unless `p99_ms` breaks the limit.
    fn step(rho: f64, p99_ms: f64) -> StepResult {
        let lat = Summary { n: 1000, p50: 1.0, p99: p99_ms, beyond_p99: 10 };
        StepResult {
            rho,
            offered_rps: 2000.0,
            goodput_rps: 1995.0,
            failures: 0,
            backlog: [5.0, 9.0],
            backlog_sd: 3.0,
            window_s: 2.0,
            slowdown: [1.0, 2.1],
            ratio_se: 0.2,
            batches: [[(1.0, 1), (2.1, 1)]; BATCHES],
            arrivals: 4000,
            latency: [lat; 3],
            late: Summary { n: 4000, p50: 0.1, p99: 20.0, beyond_p99: 40 },
            late_max_us: 300.0,
            work_rho: rho,
        }
    }

    #[test]
    fn knee_is_the_top_passing_step_below_the_first_failure() {
        let mut steps: Vec<StepResult> = RHOS.iter().map(|&r| step(r, 10.0)).collect();
        assert_eq!(knee(&steps), Some(RHOS.len() - 1));
        steps[7].late.p99 = 600.0;
        steps[7].latency[2].p99 = 80.0;
        assert!(!stops_ramp(&steps[7]), "an invalid step gives no verdict");
        assert_eq!(knee(&steps), Some(6), "and is no knee either");
        steps[3].late.p99 = 600.0;
        assert_eq!(knee(&steps), Some(6), "the ramp goes on past it");
        steps[5].latency[2].p99 = 80.0;
        assert_eq!(knee(&steps), Some(4), "a pass above a failure does not count");
        steps[0].failures = 1;
        assert_eq!(knee(&steps), None);
        assert_eq!(knee(&[]), None);
    }

    #[test]
    fn each_condition_fails_a_step() {
        let ok = step(0.6, 10.0);
        assert!(ok.pass(), "{:?}", ok.faults());
        type Breaker = fn(&mut StepResult);
        let cases: [(&str, Breaker); 6] = [
            ("failures", |s| s.failures = 1),
            ("goodput", |s| s.goodput_rps = 0.98 * s.offered_rps),
            ("backlog", |s| s.backlog = [5.0, 5.0 + 41.0]),
            ("ratio", |s| s.slowdown = [1.0, 3.5]),
            ("p99", |s| s.latency[2].p99 = 50.5),
            ("generator-late", |s| s.late.p99 = 600.0),
        ];
        for (fault, breaks) in cases {
            let mut s = ok.clone();
            breaks(&mut s);
            assert_eq!(s.faults(), vec![fault]);
        }
        // Inside the band, or outside it by less than three standard errors.
        let mut s = ok.clone();
        s.slowdown = [1.0, 2.7];
        s.ratio_se = 0.15;
        assert!(s.ratio_in_band());
        s.ratio_se = 0.05;
        assert!(!s.ratio_in_band());
        s.slowdown = [1.0, 1.2];
        assert!(!s.ratio_in_band(), "below the band fails too");
        // A queue that swings widely about its trend earns a wider
        // slack, not a pass at any shortfall.
        let mut s = ok.clone();
        s.backlog = [5.0, 46.0];
        s.backlog_sd = 20.0;
        assert!(!s.backlog_growing(), "growth 41 within 3 × 20");
        s.goodput_rps = 0.9 * s.offered_rps;
        assert!(s.goodput_short(), "a 400-request shortfall is overload");
    }

    /// A ledger of `inp` served first in, first out by one server that
    /// completes `capacity` requests per second.
    fn fifo_ledger(inp: &Inputs, capacity: f64) -> Ledger {
        let gap = (1e9 / capacity) as u64;
        let mut free = 0;
        let slots = inp
            .due_ns
            .iter()
            .map(|&due| {
                let start = due.max(free);
                free = start + gap;
                Slot {
                    state: AtomicU8::new(SUBMITTED),
                    sent_ns: AtomicU64::new(due),
                    rate_bits: AtomicU64::new(1f64.to_bits()),
                    done_ns: AtomicU64::new(free),
                    delay_bits: AtomicU64::new(((start - due) as f64 * 1e-9).to_bits()),
                    service_bits: AtomicU64::new((gap as f64 * 1e-9).to_bits()),
                }
            })
            .collect();
        Ledger { t0: Instant::now(), slots, fired: AtomicU64::new(0) }
    }

    #[test]
    fn judge_flags_a_queue_that_grows_and_only_that() {
        let inp = inputs(3, 0.9, Duration::from_secs(2));
        let arrivals = inp.due_ns.len() as f64 / 2.0;
        let eval_ns = inp.end_ns + EVAL_GRACE.as_nanos() as u64;
        // Served at 80 % of the arrival rate: the queue grows linearly.
        let over = judge(&inp, &fifo_ledger(&inp, 0.8 * arrivals), eval_ns);
        let faults = over.faults();
        assert!(faults.contains(&"backlog") && faults.contains(&"goodput"), "{faults:?}");
        let growth = over.backlog[1] - over.backlog[0];
        assert!(growth > 2.0 * over.slack(), "growth {growth} vs slack {}", over.slack());
        // Served at twice the arrival rate: the queue stays short.
        let under = judge(&inp, &fifo_ledger(&inp, 2.0 * arrivals), eval_ns);
        assert_eq!(under.failures, 0);
        assert!(!under.backlog_growing() && !under.goodput_short(), "{:?}", under.faults());
    }

    #[test]
    fn latencies_come_from_the_rounds_least_stolen() {
        let calm = [0.0; REF_ROUNDS];
        assert_eq!(quiet_rounds(&calm).len(), REF_ROUNDS, "a calm run keeps every round");
        let mut some = calm;
        some[2] = 0.05;
        some[6] = 0.02;
        let kept = quiet_rounds(&some);
        assert_eq!(kept.len(), REF_ROUNDS - 2);
        assert!(!kept.contains(&2) && !kept.contains(&6));
        let storm = [0.09, 0.03, 0.05, 0.02, 0.04, 0.06, 0.08, 0.07];
        assert_eq!(quiet_rounds(&storm), vec![3, 1, 4, 2], "the least stolen half");
    }

    #[test]
    fn ratio_standard_error_from_batches() {
        // Identical batches: the ratio is exact and the error vanishes.
        let flat = [[(10.0, 10), (20.0, 10)]; BATCHES];
        let (r, se) = ratio_with_se(&flat);
        assert!((r - 2.0).abs() < 1e-12 && se < 1e-12);
        // One heavy batch moves the ratio and shows up as error.
        let mut bumpy = flat;
        bumpy[3][1].0 = 100.0;
        let (r, se) = ratio_with_se(&bumpy);
        assert!(r > 2.0 && se > 0.1, "r {r} se {se}");
    }

    #[test]
    fn schedule_is_seeded_and_ordered() {
        let len = Duration::from_millis(400);
        let (a, b) = (inputs(9, 0.6, len), inputs(9, 0.6, len));
        assert_eq!(a.due_ns, b.due_ns);
        assert_eq!(a.cost, b.cost);
        assert_ne!(a.due_ns, inputs(10, 0.6, len).due_ns);
        assert!(a.due_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.due_ns.last().is_some_and(|&d| d < a.end_ns));
        assert!(a.cost.iter().all(|&c| (0.5..=10.0).contains(&c)));
        assert_eq!((a.ws_ns, a.end_ns), (100_000_000, 400_000_000), "a quarter warms up");
        assert!((capacity_rps() - 3396.0).abs() < 5.0, "{}", capacity_rps());
    }
}
