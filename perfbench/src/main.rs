//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the workload up several times (reporting the median set-up time),
//! then simulates it repeatedly for `--seconds` of host time, checks every
//! output, and prints the metrics as a table followed by one JSON line.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of an additional traced run, whose spans are written under
//! `out/` beside this package's manifest.

use perfbench::layers::{purpose_guard, traced_run};
use perfbench::metric::{median, Base, Metrics};
use perfbench::sim::{check_rack_conservation, digest, Pool};
use perfbench::workloads::{
    trace_seed, Workload, World, DEFAULT_SEED, FANOUT_THREADS, HELD_OUT_SEED,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Completion, Trace};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Outcome of the output checks: the first failure, if any.
#[derive(Default)]
struct Checks {
    passed: usize,
    failure: Option<String>,
}

impl Checks {
    fn check(&mut self, what: &str, result: Result<(), String>) {
        match result {
            Ok(()) => self.passed += 1,
            Err(e) => {
                eprintln!("check failed: {what}: {e}");
                self.failure.get_or_insert(format!("{what}: {e}"));
            }
        }
    }
}

fn same(want: u64, got: Result<u64, String>, what: &str) -> Result<(), String> {
    match got? {
        d if d == want => Ok(()),
        d => Err(format!(
            "{what} gives completion digest {d:016x}, first run {want:016x}"
        )),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Generates the `k`-th trace of a run and constructs its world.
fn setup(w: Workload, seed: u64, k: usize) -> (Trace, World) {
    let seed = trace_seed(seed, k);
    let trace = w.trace(seed, w.requests());
    let world = World::new(w.system(seed, &trace));
    (trace, world)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    // The knob would switch `run_detailed` to the parallel engine; the
    // benchmark measures the default one. No other thread exists yet.
    std::env::remove_var("PAR_THREADS");
    let w = args.workload;
    let requests = w.requests();
    let traces = w.traces();
    let mut checks = Checks::default();

    // The run's traces in turn, until every trace ran once and the time is
    // up; each is set up afresh, so one trace is in memory at a time. The
    // first pass feeds the simulated metrics, later passes must repeat it.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut setups, mut rates, mut first_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut pool = Pool::with_capacity(traces * requests);
    let mut digests: Vec<u64> = Vec::with_capacity(traces);
    let mut simulated = 0;
    while rates.len() < traces || start.elapsed() < budget {
        let k = rates.len() % traces;
        let t0 = Instant::now();
        let (trace, world) = setup(w, args.seed, k);
        setups.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let out = world.run(&trace, FANOUT_THREADS);
        let rate = trace.len() as f64 / t1.elapsed().as_secs_f64();
        rates.push(rate);
        if k == 0 {
            first_rates.push(rate);
        }
        simulated += trace.len();
        if k < digests.len() {
            checks.check(
                "repeat run",
                same(digests[k], digest(&trace, out.completions()), "repeat"),
            );
            continue;
        }
        if let World::Rack(rack) = &world {
            checks.check("conservation", check_rack_conservation(rack.config(), &out));
        }
        match pool.add(&trace, out.completions()) {
            Ok(d) => digests.push(d),
            Err(e) => {
                checks.check("outputs", Err(e));
                return finish(&checks, &Metrics::default(), simulated, 0);
            }
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    let sim = pool.finish()?;

    // Lost requests of the first pass, scaled to every simulation made.
    let lost = (simulated as u128 * sim.lost() as u128 / sim.offered as u128) as usize;

    // Trace 0 once more: at one thread for a rack (which must match two),
    // and as the repeat check when the time allowed no second pass.
    let (trace, world) = setup(w, args.seed, 0);
    let threads = if matches!(world, World::Rack(_)) {
        1
    } else {
        FANOUT_THREADS
    };
    let again = world.run(&trace, threads);
    let what = if threads == 1 {
        "1 thread vs 2"
    } else {
        "repeat run"
    };
    checks.check(
        what,
        same(digests[0], digest(&trace, again.completions()), what),
    );

    let mut metrics = Metrics::default();
    let mut engines = String::new();
    if args.trace {
        let traced = match traced_run(w, trace_seed(args.seed, 0), requests) {
            Ok(t) => t,
            Err(e) => {
                checks.check("traced run", Err(e));
                return finish(&checks, &Metrics::default(), simulated, lost);
            }
        };
        checks.check("traced run", same(digests[0], Ok(traced.digest), "traced"));
        checks.check("purpose", purpose_guard(w, &traced.layers));
        checks.check(
            "held-out seed",
            held_out_differs(w, args.seed, &trace, again.completions()),
        );
        metrics = traced.layers;
        let untraced = median(&first_rates);
        let overhead = 100.0 * (untraced - traced.req_per_s) / untraced;
        metrics.push("trace.overhead_pct", overhead, "%", Base::Host);
        engines = traced.engines;
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.jsonl", w.name(), args.seed);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, traced.tracer.to_jsonl()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("spans: {path}");
        println!("{:<28} {:>12} {:>12}", "span", "host_s", "self_s");
        for s in traced.tracer.spans() {
            println!(
                "{:<28} {:>12.6} {:>12.6}",
                s.name,
                s.secs(),
                traced.tracer.self_secs(s)
            );
        }
    } else {
        metrics.push("host_req_per_s", median(&rates), "1/s", Base::Host);
        metrics.push("setup_s", median(&setups), "s", Base::Host);
        metrics.push("peak_rss_mb", peak_rss_mb()?, "MB", Base::Untimed);
        metrics.push("sim_mean_us", sim.mean_us, "us", Base::Sim);
        metrics.push("sim_p99_us", sim.p99_us, "us", Base::Sim);
        metrics.push("sim_p999_us", sim.p999_us, "us", Base::Sim);
        metrics.push("sim_slowdown_p99", sim.slowdown_p99, "ratio", Base::Sim);
        metrics.push("sim_slo_met_pct", sim.slo_met_pct, "%", Base::Sim);
        metrics.push("completed_pct", sim.completed_pct, "%", Base::Untimed);
    }
    println!(
        "workload={} seed={} traces={traces}x{requests} timed_runs={} timed_s={timed_s:.3} engines={}",
        w.name(),
        args.seed,
        rates.len(),
        if engines.is_empty() { "-" } else { &engines },
    );
    finish(&checks, &metrics, simulated, lost)
}

/// The first trace of the held-out seed (or of the default seed, when the
/// run is at the held-out seed) must not reproduce the simulated metrics
/// of this run's first trace.
fn held_out_differs(
    w: Workload,
    seed: u64,
    trace: &Trace,
    completions: &[Completion],
) -> Result<(), String> {
    let other = if seed == HELD_OUT_SEED {
        DEFAULT_SEED
    } else {
        HELD_OUT_SEED
    };
    let (other_trace, other_world) = setup(w, other, 0);
    let metrics = |trace: &Trace, completions: &[Completion]| {
        let mut pool = Pool::default();
        pool.add(trace, completions)?;
        pool.finish()
    };
    let mine = metrics(trace, completions)?;
    let theirs = metrics(
        &other_trace,
        other_world.run(&other_trace, FANOUT_THREADS).completions(),
    )?;
    if mine.mean_us != theirs.mean_us && mine.p99_us != theirs.p99_us {
        Ok(())
    } else {
        Err(format!("seed {other} reproduces seed {seed}: {theirs:?}"))
    }
}

/// Prints the metric table, the check summary and the result line. A run
/// that failed a check counts every request it simulated as failed.
fn finish(
    checks: &Checks,
    metrics: &Metrics,
    attempted: usize,
    lost: usize,
) -> Result<ExitCode, String> {
    print!("{}", metrics.table());
    let failed = if checks.failure.is_some() {
        attempted
    } else {
        lost
    };
    println!(
        "checks: {} passed, {}",
        checks.passed,
        checks.failure.as_deref().unwrap_or("none failed")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        checks.failure.is_none(),
        metrics.to_json()?
    );
    Ok(ExitCode::SUCCESS)
}
