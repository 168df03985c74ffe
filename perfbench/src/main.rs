//! The repository benchmark. One command runs the three planes against
//! the release build — `psd_open`, `http_mix` and `sim_sweep`, in one
//! fixed order — with the HTTP front end on the engine the workload
//! names (`uring` or `reactor`, the epoll event loop), prints every
//! metric by name with its unit, runs the output checks, and ends with
//! one JSON result line:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload uring --seed 1 --seconds 52 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with spans recorded around each call into a layer and
//! reports the per-layer ledger instead. See `perfbench/README.md`.

mod alloc;
mod host;
mod http_mix;
mod pacing;
mod proc_cpu;
mod psd_open;
mod report;
mod sim_sweep;
mod spans;
mod stats;

use std::fs;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use psd_server::EngineKind;
use report::{m, Metric, PlaneOut};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Where a traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

/// The workloads, named by the engine that serves the HTTP plane: the
/// same requests reach the server through io_uring or through epoll,
/// so a change to one engine should read no change on the other. Every
/// run measures all three planes, because each run reports every
/// end-to-end metric.
pub const WORKLOADS: [EngineKind; 2] = [EngineKind::Uring, EngineKind::Reactor];

fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.as_str()).collect()
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: EngineKind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let names = workload_names();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => match WORKLOADS.into_iter().find(|w| w.as_str() == value) {
                Some(engine) => workload = Some(engine),
                None => return Err(format!("unknown workload {value}; one of {names:?}")),
            },
            "--seed" => seed = num()?,
            "--seconds" if num()? > 0 => seconds = num()?,
            "--trace" if value == "0" || value == "1" => trace = value == "1",
            _ => return Err(format!("unknown argument {flag} {value}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// The three planes, set up together.
struct Planes {
    psd: psd_open::Plane,
    http: http_mix::Plane,
    sim: sim_sweep::Plane,
}

/// HTTP rounds take this many units of a run, the simulation sweep one.
const HTTP_UNITS: u32 = 3;

/// Length of one unit: the PSD plane takes [`psd_open::UNITS`] of them
/// when no ramp step is retried, the HTTP rounds [`HTTP_UNITS`] and the
/// simulation sweep one, so a run measures for about `--seconds`.
fn unit(args: &Args) -> Duration {
    Duration::from_secs(args.seconds) / (psd_open::UNITS + HTTP_UNITS + 1)
}

/// Slots the rounds are dealt into: each slot runs one PSD reference
/// round, its share of the HTTP rounds and of the simulation time. The
/// machine drifts between latency states that last seconds, so rounds
/// spread over the run sample more of them than one block per plane
/// would.
const SLOTS: usize = psd_open::REF_ROUNDS;

fn setup(args: &Args) -> Planes {
    let (unit, trace) = (unit(args), args.trace);
    Planes {
        psd: psd_open::setup(args.seed, unit, trace),
        http: http_mix::setup(args.seed, unit * HTTP_UNITS, trace, args.workload),
        sim: sim_sweep::setup(args.seed, trace),
    }
}

/// Measure every plane and merge the results: the PSD ramp in one
/// piece, then the slots, each a PSD reference round, its share of the
/// HTTP rounds and its share of the simulation time.
fn measure(planes: Planes, args: &Args) -> PlaneOut {
    let Planes { mut psd, mut http, mut sim } = planes;
    let sim_slot = unit(args) / SLOTS as u32;
    psd.run_ramp();
    for _ in 0..SLOTS {
        psd.run_round();
        (0..http_mix::ROUNDS as usize / SLOTS).for_each(|_| http.run_round());
        let until = Instant::now() + sim_slot;
        sim.run_round();
        while Instant::now() < until {
            sim.run_round();
        }
    }
    let mut all = PlaneOut::default();
    let mut overheads = Vec::new();
    for out in [psd_open::finish(psd), http_mix::finish(http), sim_sweep::finish(sim)] {
        all.metrics.extend(out.metrics);
        all.attempted += out.attempted;
        all.failed += out.failed;
        all.checks.extend(out.checks);
        all.notes.extend(out.notes);
        overheads.extend(out.overhead);
        all.spans.extend(out.spans);
    }
    all.overhead = (!overheads.is_empty()).then(|| stats::mean(&overheads));
    all
}

/// The commit the checkout was made from, when it carries git metadata.
fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}")).unwrap_or_default().trim().to_string(),
        None => head.to_string(),
    }
    .chars()
    .take(40)
    .collect()
}

fn env_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let commit = commit();
    format!(
        "env nproc={nproc} kernel={} uring_available={} commit={}",
        kernel.trim(),
        psd_server::uring_available(),
        if commit.is_empty() { "unknown" } else { &commit }
    )
}

fn write_spans(args: &Args, out: &PlaneOut) -> std::io::Result<String> {
    fs::create_dir_all(TRACE_DIR)?;
    let path = format!("{TRACE_DIR}/{}-seed{}.jsonl", args.workload.as_str(), args.seed);
    let mut w = BufWriter::new(fs::File::create(&path)?);
    for (i, (thread, t)) in out.spans.iter().enumerate() {
        spans::write_jsonl(&mut w, i, thread, t.spans())?;
    }
    w.flush()?;
    Ok(path)
}

/// Set up [`SETUPS`] times, keeping the last set-up, and measure.
/// Returns the median set-up time and the merged result.
fn run(args: &Args) -> (f64, PlaneOut) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut planes = None;
    for _ in 0..SETUPS {
        if let Some(Planes { psd, http, .. }) = planes.take() {
            psd.teardown();
            http.teardown();
        }
        let t = Instant::now();
        planes = Some(setup(args));
        setups.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&mut setups), measure(planes.expect("set up at least once"), args))
}

fn span_count(out: &PlaneOut) -> usize {
    out.spans.iter().map(|(_, t)| t.spans().len()).sum()
}

/// The metrics a run reports: end-to-end untraced, per-layer traced.
fn reported(args: &Args, setup_s: f64, out: &PlaneOut) -> Vec<Metric> {
    let mut metrics = Vec::new();
    if args.trace {
        metrics.extend(&out.metrics);
        metrics.push(m("trace.overhead_pct", out.overhead.unwrap_or(0.0), "%"));
        metrics.push(m("trace.spans", span_count(out) as f64, "count"));
    } else {
        metrics.push(m("setup_s", setup_s, "s"));
        metrics.extend(&out.metrics);
    }
    metrics
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workload_names().join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", env_stamp());
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload.as_str(),
        args.seed,
        args.seconds,
        args.trace
    );

    let steal0 = proc_cpu::steal();
    let (setup_s, out) = run(&args);
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, proc_cpu::steal()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("env cpu_steal={:.2}% of machine CPU time during the run", share * 100.0);
    }
    let metrics = reported(&args, setup_s, &out);
    if args.trace {
        let dropped: u64 = out.spans.iter().map(|(_, t)| t.dropped()).sum();
        println!(
            "trace: {} spans kept, {dropped} dropped for want of reserved room",
            span_count(&out)
        );
        match write_spans(&args, &out) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => println!("spans not written: {e}"),
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    for c in &out.checks {
        println!("check {} {}: {}", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    for x in &metrics {
        println!("metric {} = {} {}", x.name, x.value, x.unit);
    }
    println!("{}", report::result_json(out.correct(), out.attempted, out.failed_total(), &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_obs::JsonValue;
    use std::collections::BTreeSet;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn listed(key: &str) -> BTreeSet<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec =
            JsonValue::parse(&fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let list = spec.get(key).and_then(JsonValue::as_array).expect("metric list");
        list.iter()
            .map(|x| {
                let field =
                    |f| x.get(f).and_then(JsonValue::as_str).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// A smoke run of each workload at tiny lengths, the first
    /// untraced and the second traced: it completes, and prints exactly
    /// the metrics listed.
    #[test]
    fn tiny_runs_print_the_listed_metrics() {
        let spec = JsonValue::parse(
            &fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("read"),
        )
        .expect("JSON");
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(workloads, workload_names());
        for (workload, trace) in WORKLOADS.into_iter().zip([false, true]) {
            let args = Args { workload, seed: 5, seconds: 2, trace };
            let steal0 = proc_cpu::steal();
            let (setup_s, out) = run(&args);
            if let (Some((s0, t0)), Some((s1, t1))) = (steal0, proc_cpu::steal()) {
                let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
                println!("env cpu_steal={:.2}% of machine CPU time during the run", share * 100.0);
            }
            assert!(setup_s > 0.0 && out.attempted > 0, "{workload:?}: nothing ran");
            let printed: BTreeSet<(String, String)> = reported(&args, setup_s, &out)
                .iter()
                .map(|x| (x.name.to_string(), x.unit.to_string()))
                .collect();
            let key = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(printed, listed(key), "{workload:?} trace={trace}");
            let line = report::result_json(
                out.correct(),
                out.attempted,
                out.failed_total(),
                &reported(&args, setup_s, &out),
            );
            assert!(JsonValue::parse(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn parses_the_run_contract() {
        let a = args("--workload reactor --seed 7 --seconds 3 --trace 1").expect("valid");
        let want = Args { workload: EngineKind::Reactor, seed: 7, seconds: 3, trace: true };
        assert_eq!(a, want);
        assert!(args("--workload threads").is_err(), "not a workload");
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err(), "workload is required");
        assert!(args("--workload uring --trace 2").is_err());
        assert!(args("--workload uring --seconds 0").is_err());
    }
}
