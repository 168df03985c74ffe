//! `sim_sweep`: Fig. 2 regenerated at paper scale — two classes at
//! δ = 1:2, `PsdConfig::equal_load` over the 11-point load sweep at the
//! 61 000/10 000-unit horizon, many seeds per point, with `Experiment`
//! capped at the machine's thread count. CPU-bound in desim, dist and
//! core; it bypasses every server layer, so a server change should
//! read no change here. Its rate follows the host's speed and is
//! reported at the reference speed of [`crate::host`].

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use psd_control::{ControlDirective, RateController, WindowObservation};
use psd_core::experiment::Experiment;
use psd_core::simulation::{run_once, run_with_controller};
use psd_core::{PsdConfig, PsdReport};
use psd_dist::rng::{SplitMix64, Xoshiro256pp};
use psd_dist::{ServiceDist, ServiceDistribution};

use crate::host;
use crate::report::{m, Check, PlaneOut};
use crate::spans::{self, Open, Tracer};
use crate::stats;

/// The load sweep of Fig. 2.
pub const LOADS: [f64; 11] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95];
/// Replications per load point in one round of the sweep.
const RUNS_PER_POINT: u64 = 4;
/// Spans each simulation thread keeps in a traced run.
const SPANS_PER_THREAD: usize = 1 << 16;
/// Loads up to this one are checked against Eq. 17.
const CHECK_MAX_LOAD: f64 = 0.9;
/// Allowed relative gap between simulated and Eq. 17 mean slowdowns…
const TOLERANCE: f64 = 0.10;
/// …plus this many standard errors of the simulated mean.
const SE_ALLOWED: f64 = 4.0;
const DELTAS: [f64; 2] = [1.0, 2.0];

/// The plane: the configurations and their Eq. 17 predictions, then
/// the rounds of the sweep run so far.
pub struct Plane {
    configs: Vec<PsdConfig>,
    expected: Vec<Vec<f64>>,
    seed: u64,
    threads: usize,
    trace: bool,
    /// Per load point: every run's report.
    by_load: Vec<Vec<PsdReport>>,
    /// Simulated requests per second of each round: a round is short,
    /// so a stretch of CPU contention spoils a few rounds, not the run.
    round_rates: Vec<f64>,
    /// The host probe's time before each round (ms).
    round_probes: Vec<f64>,
    completed: u64,
    wall: Duration,
    /// Traced run: `[traced ns, traced requests, untraced ns, untraced
    /// requests]` and one recorder per thread.
    op: [f64; 4],
    tracers: Vec<Tracer>,
}

/// Build the sweep's configurations and model predictions.
pub fn setup(seed: u64, trace: bool) -> Plane {
    let configs: Vec<PsdConfig> =
        LOADS.iter().map(|&rho| PsdConfig::equal_load(&DELTAS, rho)).collect();
    let expected = configs
        .iter()
        .map(|c| c.expected_slowdowns().expect("Eq. 17 holds below saturation"))
        .collect();
    let threads = thread::available_parallelism().map_or(1, |n| n.get());
    let epoch = Instant::now();
    Plane {
        configs,
        expected,
        seed,
        threads,
        trace,
        by_load: vec![Vec::new(); LOADS.len()],
        round_rates: Vec::new(),
        round_probes: Vec::new(),
        completed: 0,
        wall: Duration::ZERO,
        op: [0.0; 4],
        tracers: (0..if trace { threads } else { 0 })
            .map(|_| Tracer::new(true, epoch, SPANS_PER_THREAD))
            .collect(),
    }
}

/// Run seed of replication `k` of load point `li` in round `round`.
fn run_seed(base: u64, round: u64, li: usize) -> u64 {
    SplitMix64::derive(base, round * LOADS.len() as u64 + li as u64)
}

fn completions(r: &PsdReport) -> u64 {
    r.classes.iter().map(|c| c.completed).sum()
}

/// A controller wrapper that records each control call as a
/// `desim.controller` span under the run's `sim.run` span.
struct Timed<C> {
    inner: C,
    tracer: Rc<RefCell<Tracer>>,
    id: u64,
    parent: Open,
}

impl<C: RateController> RateController for Timed<C> {
    fn initial_rates(&mut self, n_classes: usize) -> Vec<f64> {
        self.inner.initial_rates(n_classes)
    }

    fn reallocate(&mut self, now: f64, window: &WindowObservation) -> Option<Vec<f64>> {
        self.inner.reallocate(now, window)
    }

    fn control(&mut self, now: f64, window: &WindowObservation) -> ControlDirective {
        let s = self.tracer.borrow_mut().open(self.id, "desim.controller", self.parent);
        let d = self.inner.control(now, window);
        self.tracer.borrow_mut().close(s);
        d
    }

    fn internals(&self) -> Vec<(String, Vec<f64>)> {
        self.inner.internals()
    }
}

/// Median ns of one `ServiceDist::sample` of the paper's distribution,
/// from `dist.sample` spans of 1000 draws each.
fn dist_sample_ns(seed: u64, tracer: &mut Tracer) -> f64 {
    let d = ServiceDist::paper_default();
    let mut rng = Xoshiro256pp::seed_from(seed);
    let mut sink = 0.0;
    for i in 0..400 {
        let s = tracer.open(i, "dist.sample", Open::NONE);
        for _ in 0..1000 {
            sink += d.sample(&mut rng);
        }
        tracer.close(s);
    }
    std::hint::black_box(sink);
    let by = spans::self_times_by_name([&*tracer]);
    by.get("dist.sample").map_or(0.0, |v| stats::median(&mut v.clone()) / 1000.0)
}

/// What one thread of a traced round hands back: its recorder, its runs
/// by load point, and its `[traced ns, requests, untraced ns, requests]`.
type ThreadRound = (Tracer, Vec<(usize, PsdReport)>, [f64; 4]);

impl Plane {
    /// Run one round of the sweep: every load point, [`RUNS_PER_POINT`]
    /// seeds each.
    pub fn run_round(&mut self) {
        let probe = host::probe_ms();
        let (t, before) = (Instant::now(), self.completed);
        let round = self.round_rates.len() as u64;
        if self.trace {
            self.traced_round(round);
        } else {
            for (li, cfg) in self.configs.iter().enumerate() {
                let rep = Experiment::new(cfg.clone())
                    .runs(RUNS_PER_POINT)
                    .threads(self.threads)
                    .base_seed(run_seed(self.seed, round, li))
                    .run();
                self.completed += rep.runs.iter().map(completions).sum::<u64>();
                self.by_load[li].extend(rep.runs);
            }
        }
        let dt = t.elapsed();
        self.wall += dt;
        self.round_rates.push((self.completed - before) as f64 / dt.as_secs_f64());
        self.round_probes.push(probe);
    }

    /// The same runs as a round of `Experiment`s (same seeds), fanned
    /// out by hand so each run can carry the timing wrapper. Odd runs
    /// are traced and even ones are not.
    fn traced_round(&mut self, round: u64) {
        let jobs = LOADS.len() * RUNS_PER_POINT as usize;
        let next = AtomicUsize::new(0);
        let (configs, seed) = (&self.configs, self.seed);
        let done: Vec<ThreadRound> = thread::scope(|scope| {
            let workers: Vec<_> = std::mem::take(&mut self.tracers)
                .into_iter()
                .map(|tracer| {
                    let next = &next;
                    thread::Builder::new()
                        .name("bench-sim".into())
                        .spawn_scoped(scope, move || {
                            let tracer = Rc::new(RefCell::new(tracer));
                            let (mut mine, mut op) = (Vec::new(), [0.0f64; 4]);
                            loop {
                                let j = next.fetch_add(1, Ordering::Relaxed);
                                if j >= jobs {
                                    break;
                                }
                                let (li, k) =
                                    (j / RUNS_PER_POINT as usize, j as u64 % RUNS_PER_POINT);
                                let (cfg, traced) = (&configs[li], j % 2 == 1);
                                let run_seed = SplitMix64::derive(run_seed(seed, round, li), k);
                                let id = round * jobs as u64 + j as u64;
                                let t0 = Instant::now();
                                let rep = if traced {
                                    let root = tracer.borrow_mut().open(id, "sim.run", Open::NONE);
                                    let timed = Timed {
                                        inner: cfg.controller(),
                                        tracer: Rc::clone(&tracer),
                                        id,
                                        parent: root,
                                    };
                                    let rep = run_with_controller(cfg, run_seed, Box::new(timed));
                                    tracer.borrow_mut().close(root);
                                    rep
                                } else {
                                    run_with_controller(cfg, run_seed, Box::new(cfg.controller()))
                                };
                                let i = if traced { 0 } else { 2 };
                                op[i] += t0.elapsed().as_nanos() as f64;
                                op[i + 1] += completions(&rep) as f64;
                                mine.push((li, rep));
                            }
                            let tracer = Rc::try_unwrap(tracer).ok().expect("runs ended");
                            (tracer.into_inner(), mine, op)
                        })
                        .expect("spawn sim thread")
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("sim thread")).collect()
        });
        for (tracer, runs, op) in done {
            self.tracers.push(tracer);
            (0..4).for_each(|i| self.op[i] += op[i]);
            for (li, rep) in runs {
                self.completed += completions(&rep);
                self.by_load[li].push(rep);
            }
        }
    }
}

/// Report the rounds run so far, with the output checks: end-to-end
/// metrics, or the per-layer ledger in a traced run.
pub fn finish(plane: Plane) -> PlaneOut {
    let Plane {
        configs,
        expected,
        seed,
        threads,
        trace,
        by_load,
        mut round_rates,
        mut round_probes,
        completed,
        wall,
        op,
        tracers,
    } = plane;
    let mut out = PlaneOut::default();
    if trace {
        let by = spans::self_times_by_name(&tracers);
        let sum = |name: &str| by.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
        let controller = sum("desim.controller");
        let runs_ns = sum("sim.run") + controller;
        let mut main_tracer = Tracer::new(true, Instant::now(), 400);
        out.metrics = vec![
            m(
                "desim.controller_ns_per_window",
                by.get("desim.controller").map_or(0.0, |v| stats::median(&mut v.clone())),
                "ns",
            ),
            m("desim.controller_share", controller / runs_ns.max(1.0), "ratio"),
            m("desim.engine_ns_per_req", sum("sim.run") / op[1].max(1.0), "ns"),
            m("dist.sample_ns", dist_sample_ns(seed, &mut main_tracer), "ns"),
        ];
        out.overhead = spans::overhead_pct(op);
        out.spans.extend(tracers.into_iter().map(|t| ("bench-sim", t)));
        out.spans.push(("bench-main", main_tracer));
    }
    out.attempted = by_load.iter().map(|v| v.len() as u64).sum();

    // Eq. 17: the mean over runs of each class's mean slowdown must sit
    // within a relative tolerance of the model, widened by the standard
    // error of that mean: at the lightest loads a run sees so little
    // queueing that its mean slowdown is mostly noise.
    let mut worst = (f64::NEG_INFINITY, 0.0f64, 0usize);
    let mut table = String::from("sim_sweep rho: sim/Eq.17 per class");
    for (li, reps) in by_load.iter().enumerate() {
        table.push_str(&format!(" | {}:", LOADS[li]));
        for (c, exp) in expected[li].iter().enumerate() {
            let vals: Vec<f64> = reps.iter().filter_map(|r| r.classes[c].mean_slowdown).collect();
            let mean = stats::mean(&vals);
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
                / (vals.len().max(2) - 1) as f64;
            let se = (var / vals.len().max(1) as f64).sqrt();
            table.push_str(&format!(" {:.3}", mean / exp));
            // Excess of the gap over what the check allows, in units of exp.
            let excess = ((mean - exp).abs() - TOLERANCE * exp - SE_ALLOWED * se) / exp;
            if LOADS[li] <= CHECK_MAX_LOAD && excess > worst.0 {
                worst = (excess, LOADS[li], c);
            }
        }
    }
    out.notes.push(table);
    out.checks.push(Check::new(
        "sim_sweep.eq17_match",
        worst.0 <= 0.0,
        format!(
            "worst case class {} at rho {}: gap {:+.1}% of Eq. 17 beyond {:.0}% + {SE_ALLOWED} standard errors, over {} runs",
            worst.2,
            worst.1,
            worst.0 * 100.0,
            TOLERANCE * 100.0,
            out.attempted
        ),
    ));
    let probe = &configs[LOADS.len() / 2];
    let same = run_once(probe, seed) == run_once(probe, seed);
    out.checks.push(Check::new(
        "sim_sweep.deterministic",
        same,
        format!(
            "two runs of seed {seed} at rho {} {}",
            LOADS[LOADS.len() / 2],
            if same { "match" } else { "differ" }
        ),
    ));
    for (rate, probe) in round_rates.iter().zip(&round_probes) {
        out.notes.push(format!("sim_sweep round: host probe {probe:.3} ms; {rate:.0} req/s"));
    }
    let (rate, probe) = (stats::aggregate(&mut round_rates), stats::median(&mut round_probes));
    out.notes.push(format!(
        "sim_sweep {} runs in {} rounds, {completed} simulated requests in {:.2} s on {threads} threads: {rate:.0} req/s with the host probe at {probe:.3} ms",
        out.attempted,
        round_rates.len(),
        wall.as_secs_f64(),
    ));
    if !trace {
        out.metrics = vec![m("sim_req_per_s", host::scale_rate(rate, probe), "req/s")];
    }
    out
}
