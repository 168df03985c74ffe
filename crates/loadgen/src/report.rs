//! The load-test report: per-class throughput, coordinated-omission
//! corrected latency percentiles, achieved slowdown ratios vs. the
//! configured δ's — serializable to JSON (the `BENCH_loadgen.json`
//! schema CI tracks) and renderable as markdown.

use serde::Serialize;

use crate::generator::{GenStats, BAND_WINDOW};
use crate::scenario::{LoadMode, Scenario};

/// The convergence band behind `time_to_band_s`: a window is "in band"
/// when every class's achieved (trailing-pooled) slowdown ratio is
/// within ±25% of its (possibly reconfigured) δ target.
pub const BAND_TOLERANCE: f64 = 0.25;

/// Latency summary in milliseconds.
#[derive(Debug, Clone, Serialize)]
pub struct LatencySummary {
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Median (ms).
    pub p50_ms: f64,
    /// 90th percentile (ms).
    pub p90_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// 99.9th percentile (ms).
    pub p999_ms: f64,
    /// Largest observed (ms).
    pub max_ms: f64,
}

/// One class's slice of the report.
#[derive(Debug, Clone, Serialize)]
pub struct ClassReport {
    /// Class index (0 = highest class).
    pub class: usize,
    /// Configured differentiation parameter δ.
    pub delta: f64,
    /// Requests attempted, whole run.
    pub sent: u64,
    /// 2xx responses, whole run.
    pub ok: u64,
    /// Non-2xx responses plus transport failures, whole run.
    pub errors: u64,
    /// Requests shed by admission control (503 + `X-Shed`), whole run —
    /// deliberate overload control, not failures.
    pub shed: u64,
    /// 2xx responses inside the measurement window.
    pub measured: u64,
    /// Measured-window throughput (req/s).
    pub throughput_rps: f64,
    /// Latency summary over the measurement window.
    pub latency: LatencySummary,
    /// Mean server-reported slowdown over the measurement window.
    pub mean_slowdown: f64,
    /// Achieved `E[S_class]/E[S_0]`, when both classes have data.
    pub slowdown_ratio_vs_class0: Option<f64>,
    /// Target `δ_class/δ_0`, from the δ's in force at the *end* of the
    /// run (the reconfigured values, when the scenario flips them).
    pub target_ratio_vs_class0: f64,
    /// `|achieved/target − 1|`, when achieved exists. `None` for
    /// reconfig runs: the whole-run mean blends both δ regimes, so no
    /// single target applies — use `time_to_band_s` instead.
    pub ratio_deviation: Option<f64>,
}

/// The complete report of one scenario run.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Scenario name.
    pub scenario: String,
    /// Front-end engine under test (`"reactor"` or `"uring"`), so
    /// `BENCH_reactor.json` / `BENCH_uring.json` are self-describing
    /// and the perf trajectory can track the engines separately.
    pub engine: String,
    /// Reactor event-loop shards the run used.
    pub shards: usize,
    /// Controller family driving the server's monitor (`"open"` or
    /// `"feedback"`).
    pub controller: String,
    /// Admission cap the server ran with (`null` = no admission
    /// control).
    pub admission_cap: Option<f64>,
    /// `"open"` or `"closed"`.
    pub mode: String,
    /// Total run length in seconds (including warmup).
    pub duration_s: f64,
    /// Warmup excluded from the measured statistics.
    pub warmup_s: f64,
    /// Connection-pool size (open) or session population (closed).
    pub connections: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Configured (initial) δ's.
    pub deltas: Vec<f64>,
    /// When the scenario hot-swaps δ's mid-run: the flip instant as a
    /// fraction of the duration (`null` otherwise).
    pub reconfig_at_frac: Option<f64>,
    /// The replacement δ's of a reconfig run (`null` otherwise) — the
    /// values the per-class ratio targets are computed against.
    pub reconfig_deltas: Option<Vec<f64>>,
    /// Requests attempted, whole run, all classes.
    pub total_sent: u64,
    /// Errors, whole run, all classes.
    pub total_errors: u64,
    /// Requests shed by admission control, whole run, all classes.
    pub total_shed: u64,
    /// Connection workers that aborted on transport failures.
    pub dead_workers: usize,
    /// Time-to-band settling: seconds from the measurement origin
    /// (warmup end — or the reconfiguration instant, when the scenario
    /// hot-swaps δ's) until the trailing-pooled per-window slowdown
    /// ratios enter the ±[`BAND_TOLERANCE`] band around the δ targets
    /// **and hold it for ~3 s of judged windows** (the classical
    /// settling-time definition — a later heavy-tail excursion does
    /// not retract it). `None` = never settled (or fewer than two
    /// classes saw data).
    pub time_to_band_s: Option<f64>,
    /// The tolerance `time_to_band_s` was computed against.
    pub band_tolerance: f64,
    /// Aggregate measured-window throughput (req/s).
    pub throughput_rps: f64,
    /// Per-class detail.
    pub classes: Vec<ClassReport>,
}

fn quantile_ms(h: &crate::histogram::LogHistogram, q: f64) -> f64 {
    h.value_at_quantile(q).unwrap_or(0) as f64 / 1_000.0
}

/// How many trailing [`BAND_WINDOW`]s are pooled for each band
/// judgement (count-weighted): slowdowns are heavy-tailed, so a single
/// 500 ms window mean bounces by ±3× even in steady state — the band
/// must be judged on a few seconds of pooled data to mean anything.
const BAND_SMOOTH_WINDOWS: usize = 6;

/// How many consecutive judged windows must stay in band for the
/// trajectory to count as settled (the classical settling-time
/// definition — "in band and holds for 3 s" — rather than "never
/// leaves again", which a single heavy-tail excursion near the end of
/// the run would void).
const BAND_HOLD_WINDOWS: usize = 6;

/// Seconds from the measurement origin until the (trailing-pooled)
/// windowed slowdown ratios enter the ±[`BAND_TOLERANCE`] band around
/// the target δ ratios and hold it for [`BAND_HOLD_WINDOWS`] judged
/// windows. With a reconfiguration the origin is the flip instant, the
/// targets are the *new* δ's, and the pooling never reaches back
/// across the flip; otherwise the origin is the warmup end. Windows
/// where class 0 or every other class lacks data are neutral (they
/// neither enter nor break the band).
fn time_to_band(scenario: &Scenario, stats: &GenStats) -> Option<f64> {
    if stats.classes.len() < 2 {
        return None;
    }
    let target_deltas: &[f64] = match &scenario.reconfig {
        Some(r) => &r.deltas,
        None => &scenario.deltas,
    };
    let base_delta = target_deltas[0];
    let measure_from_s = match &scenario.reconfig {
        Some(r) => scenario.duration.as_secs_f64() * r.at_frac,
        None => scenario.warmup.as_secs_f64(),
    };
    let win_s = BAND_WINDOW.as_secs_f64();
    let n_windows = stats.classes.iter().map(|c| c.windows.len()).max().unwrap_or(0);
    let first = (measure_from_s / win_s).ceil() as usize;
    // Judge each window on its trailing pooled ratios, clamped to the
    // measurement origin so pre-flip (old-δ) data never leaks in.
    let mut judged: Vec<(usize, bool)> = Vec::new();
    for w in first..n_windows {
        let lo = w.saturating_sub(BAND_SMOOTH_WINDOWS - 1).max(first);
        let Some(s0) = stats.classes[0].windows.mean_range(lo, w).filter(|&s| s > 0.0) else {
            continue;
        };
        let mut any = false;
        let mut in_band = true;
        for (i, c) in stats.classes.iter().enumerate().skip(1) {
            if let Some(si) = c.windows.mean_range(lo, w) {
                any = true;
                let target = target_deltas[i] / base_delta;
                if ((si / s0) / target - 1.0).abs() > BAND_TOLERANCE {
                    in_band = false;
                }
            }
        }
        if any {
            judged.push((w, in_band));
        }
    }
    // Settle = first judged window opening a run of BAND_HOLD_WINDOWS
    // consecutive in-band judgements (a shorter all-in-band run at the
    // very end still counts if at least half the hold is observed).
    for i in 0..judged.len() {
        let horizon = &judged[i..(i + BAND_HOLD_WINDOWS).min(judged.len())];
        if horizon.len() >= BAND_HOLD_WINDOWS.div_ceil(2) && horizon.iter().all(|&(_, ok)| ok) {
            let w = judged[i].0;
            return Some((w as f64 * win_s - measure_from_s).max(0.0));
        }
    }
    None
}

impl LoadReport {
    /// Assemble the report from the generator's raw counters.
    pub fn from_stats(scenario: &Scenario, stats: &GenStats) -> Self {
        let mode = match scenario.mode {
            LoadMode::Open { .. } => "open",
            LoadMode::Closed { .. } => "closed",
        };
        let connections = match scenario.mode {
            LoadMode::Closed { sessions, .. } => sessions,
            LoadMode::Open { .. } => scenario.connections,
        };
        let base_slowdown = stats.classes.first().map(|c| c.slowdown.mean()).unwrap_or(0.0);
        // Ratio targets come from the δ's in force at the *end* of the
        // run; a reconfig run's whole-run achieved ratio blends both
        // regimes, so its per-class `ratio_deviation` is suppressed
        // (judging a blend against either target would be
        // meaningless) — `time_to_band_s`, computed post-flip against
        // the new targets, is the reconfig convergence metric.
        let target_deltas: &[f64] = match &scenario.reconfig {
            Some(r) => &r.deltas,
            None => &scenario.deltas,
        };
        let base_delta = target_deltas.first().copied().unwrap_or(1.0);
        let measured_s = stats.measured_s.max(1e-9);
        let classes: Vec<ClassReport> = stats
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let h = &c.latency_us;
                let achieved = (i > 0 && c.slowdown.count() > 0 && base_slowdown > 0.0)
                    .then(|| c.slowdown.mean() / base_slowdown);
                let target = target_deltas[i] / base_delta;
                ClassReport {
                    class: i,
                    delta: scenario.deltas[i],
                    sent: c.sent,
                    ok: c.ok,
                    errors: c.errors,
                    shed: c.shed,
                    measured: h.count(),
                    throughput_rps: h.count() as f64 / measured_s,
                    latency: LatencySummary {
                        mean_ms: h.mean() / 1_000.0,
                        p50_ms: quantile_ms(h, 0.50),
                        p90_ms: quantile_ms(h, 0.90),
                        p99_ms: quantile_ms(h, 0.99),
                        p999_ms: quantile_ms(h, 0.999),
                        max_ms: h.max() as f64 / 1_000.0,
                    },
                    mean_slowdown: c.slowdown.mean(),
                    slowdown_ratio_vs_class0: achieved,
                    target_ratio_vs_class0: target,
                    ratio_deviation: if scenario.reconfig.is_some() {
                        None
                    } else {
                        achieved.map(|a| (a / target - 1.0).abs())
                    },
                }
            })
            .collect();
        let total_measured: u64 = classes.iter().map(|c| c.measured).sum();
        LoadReport {
            scenario: scenario.name.clone(),
            engine: scenario.server.engine.as_str().to_string(),
            shards: scenario.server.shards,
            controller: scenario.server.controller.as_str().to_string(),
            admission_cap: scenario.server.admission_cap,
            mode: mode.to_string(),
            duration_s: scenario.duration.as_secs_f64(),
            warmup_s: scenario.warmup.as_secs_f64(),
            connections,
            seed: scenario.seed,
            deltas: scenario.deltas.clone(),
            reconfig_at_frac: scenario.reconfig.as_ref().map(|r| r.at_frac),
            reconfig_deltas: scenario.reconfig.as_ref().map(|r| r.deltas.clone()),
            total_sent: stats.total_sent(),
            total_errors: stats.total_errors(),
            total_shed: classes.iter().map(|c| c.shed).sum(),
            dead_workers: stats.dead_workers,
            time_to_band_s: time_to_band(scenario, stats),
            band_tolerance: BAND_TOLERANCE,
            throughput_rps: total_measured as f64 / measured_s,
            classes,
        }
    }

    /// Largest per-class `ratio_deviation` (0.0 when no class pair has
    /// data — callers should also check `classes` counts).
    pub fn max_ratio_deviation(&self) -> f64 {
        self.classes.iter().filter_map(|c| c.ratio_deviation).fold(0.0, f64::max)
    }

    /// CI gate: errors, dead workers, empty classes, a shed highest
    /// class (admission must protect class 0 before touching anything
    /// else), or a slowdown ratio off target by more than
    /// `max_deviation` fail the run. Shed low-class requests do *not*
    /// fail the gate — they are the admission controller doing its job.
    pub fn check(&self, max_deviation: f64) -> Result<(), String> {
        if self.total_errors > 0 {
            return Err(format!("{} non-2xx/transport errors", self.total_errors));
        }
        if self.dead_workers > 0 {
            return Err(format!("{} connection worker(s) died", self.dead_workers));
        }
        if self.classes.len() > 1 && self.classes[0].shed > 0 {
            return Err(format!(
                "admission shed {} highest-class request(s) — lower classes must shed first",
                self.classes[0].shed
            ));
        }
        if let Some(c) = self.classes.iter().find(|c| c.measured == 0) {
            return Err(format!("class {} measured no responses", c.class));
        }
        let dev = self.max_ratio_deviation();
        if dev > max_deviation {
            return Err(format!(
                "slowdown ratio deviates {:.0}% from the δ targets (limit {:.0}%)",
                dev * 100.0,
                max_deviation * 100.0
            ));
        }
        Ok(())
    }

    /// Compact JSON (the `BENCH_loadgen.json` schema).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is total")
    }

    /// Human-readable markdown summary.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let engine = format!("{} engine ({} shard(s))", self.engine, self.shards);
        let cap = self
            .admission_cap
            .map(|c| format!("admission cap {c:.2}"))
            .unwrap_or_else(|| "no admission cap".into());
        let band =
            self.time_to_band_s.map(|t| format!("{t:.1}s")).unwrap_or_else(|| "not reached".into());
        out.push_str(&format!(
            "## Load report — `{}` ({}, {} loop)\n\n\
             {:.1}s run ({:.1}s warmup), {} connections, seed {}, δ = {:?}\n\n\
             control: `{}` controller, {cap}\n\n\
             total: {} sent, {} errors, {} shed, {:.0} req/s measured, \
             time-to-band (±{:.0}%): {band}\n\n",
            self.scenario,
            engine,
            self.mode,
            self.duration_s,
            self.warmup_s,
            self.connections,
            self.seed,
            self.deltas,
            self.controller,
            self.total_sent,
            self.total_errors,
            self.total_shed,
            self.throughput_rps,
            self.band_tolerance * 100.0,
        ));
        out.push_str(
            "| class | δ | req/s | p50 ms | p99 ms | p99.9 ms | mean slowdown | S ratio | target | dev | shed |\n\
             |---|---|---|---|---|---|---|---|---|---|---|\n",
        );
        for c in &self.classes {
            out.push_str(&format!(
                "| {} | {} | {:.0} | {:.2} | {:.2} | {:.2} | {:.2} | {} | {:.2} | {} | {} |\n",
                c.class,
                c.delta,
                c.throughput_rps,
                c.latency.p50_ms,
                c.latency.p99_ms,
                c.latency.p999_ms,
                c.mean_slowdown,
                c.slowdown_ratio_vs_class0.map(|r| format!("{r:.2}")).unwrap_or_else(|| "—".into()),
                c.target_ratio_vs_class0,
                c.ratio_deviation
                    .map(|d| format!("{:.0}%", d * 100.0))
                    .unwrap_or_else(|| "—".into()),
                c.shed,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ClassCounters;
    use std::time::Duration;

    fn fake_stats() -> (Scenario, GenStats) {
        let mut scenario = Scenario::by_name("steady").unwrap();
        scenario.duration = Duration::from_secs(10);
        scenario.warmup = Duration::from_secs(2);
        let mut c0 = ClassCounters { sent: 100, ok: 100, errors: 0, ..Default::default() };
        let mut c1 = ClassCounters { sent: 100, ok: 99, errors: 1, ..Default::default() };
        for i in 0..100u64 {
            c0.latency_us.record(1_000 + i * 10);
            c0.slowdown.push(1.0);
        }
        for i in 0..99u64 {
            c1.latency_us.record(2_000 + i * 20);
            c1.slowdown.push(2.1);
        }
        (scenario, GenStats { classes: vec![c0, c1], measured_s: 8.0, dead_workers: 0 })
    }

    #[test]
    fn report_computes_ratios_and_throughput() {
        let (scenario, stats) = fake_stats();
        let r = LoadReport::from_stats(&scenario, &stats);
        assert_eq!(r.total_sent, 200);
        assert_eq!(r.total_errors, 1);
        assert_eq!(r.classes[0].slowdown_ratio_vs_class0, None, "class 0 is the base");
        let ratio = r.classes[1].slowdown_ratio_vs_class0.unwrap();
        assert!((ratio - 2.1).abs() < 1e-9);
        assert!((r.classes[1].target_ratio_vs_class0 - 2.0).abs() < 1e-12);
        assert!((r.max_ratio_deviation() - 0.05).abs() < 1e-9);
        assert!((r.classes[0].throughput_rps - 100.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn check_gates_on_errors_and_deviation() {
        let (scenario, stats) = fake_stats();
        let r = LoadReport::from_stats(&scenario, &stats);
        assert!(r.check(0.5).unwrap_err().contains("errors"), "1 error must fail");
        let mut clean = stats.clone();
        clean.classes[1].errors = 0;
        let r = LoadReport::from_stats(&scenario, &clean);
        assert!(r.check(0.5).is_ok());
        assert!(r.check(0.01).unwrap_err().contains("deviates"));
    }

    #[test]
    fn json_roundtrips_key_fields() {
        let (scenario, stats) = fake_stats();
        let json = LoadReport::from_stats(&scenario, &stats).to_json();
        for key in [
            "\"scenario\"",
            "\"engine\"",
            "\"shards\"",
            "\"throughput_rps\"",
            "\"p99_ms\"",
            "\"mean_slowdown\"",
            "\"target_ratio_vs_class0\"",
            "\"classes\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn markdown_has_a_row_per_class() {
        let (scenario, stats) = fake_stats();
        let md = LoadReport::from_stats(&scenario, &stats).to_markdown();
        assert!(md.contains("| 0 | 1 |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("Load report"));
    }
}
