//! The traced run: one more pass over a workload with host-time spans
//! around every call into a layer's public functions, plus the per-layer
//! counters that the public result structs expose.
//!
//! Layers that do not act on a workload report 0 (for example every
//! `rack.*` metric on `server_bursty`, and every `phase.*` metric on the
//! rack workloads).

use crate::metric::{median, Base, Metrics};
use crate::sim::digest;
use crate::spans::{Span, Tracer};
use crate::workloads::{System, Workload, FANOUT_THREADS};
use altocumulus::rack::{
    RackConfig, RackResult, RackWorld, RoutingStats, ServerOutcome, ServerSpec,
};
use altocumulus::telemetry::phase_table;
use altocumulus::{AcResult, Altocumulus, Telemetry};
use std::collections::BTreeMap;
use std::time::Instant;
use workload::Trace;

/// Lifecycle phases of the `phase.*.tail_us` metrics, as the phase table
/// names them.
const PHASES: [&str; 5] = [
    "netrx_wait",
    "migration",
    "dispatch",
    "worker_wait",
    "service",
];

/// Everything the traced run measured.
#[derive(Debug)]
pub struct Traced {
    /// Spans recorded around the layer calls.
    pub tracer: Tracer,
    /// Per-layer metrics (without `trace.overhead_pct`, which needs the
    /// untraced runs).
    pub layers: Metrics,
    /// Digest of the completions of the traced run's main simulation.
    pub digest: u64,
    /// Engines that drove the simulations, with how many servers each.
    pub engines: String,
    /// Simulated requests per host second of the traced main simulation.
    pub req_per_s: f64,
}

/// Simulations of the traced run's trace; host timings are their medians.
const TRACED_REPS: usize = 5;

/// Simulates `workload` on the trace of `seed` [`TRACED_REPS`] times with
/// spans around each layer call, and collects its per-layer metrics.
/// Fails if an output check fails.
pub fn traced_run(workload: Workload, seed: u64, requests: usize) -> Result<Traced, String> {
    let mut tracer = Tracer::new(format!("{}-seed{seed}", workload.name()));
    let result = tracer.span("bench.traced_run", |t| {
        let trace = t.span("workload.build", |_| workload.trace(seed, requests));
        match workload.system(seed, &trace) {
            System::Server(cfg) => server_layers(t, &trace, cfg),
            System::Rack(cfg) => rack_layers(t, &trace, cfg),
        }
    });
    let (mut layers, sim, engines, main_span) = result?;
    let workload_build = tracer.median_secs("workload.build");
    let run_s = tracer.median_secs(main_span);
    let mut head = Metrics::default();
    head.push("workload.build_s", workload_build, "s", Base::Host);
    head.push("workload.requests", requests as f64, "count", Base::Untimed);
    layers.0.splice(0..0, head.0);
    Ok(Traced {
        tracer,
        layers,
        digest: sim,
        engines,
        req_per_s: requests as f64 / run_s,
    })
}

type LayerResult = Result<(Metrics, u64, String, &'static str), String>;

fn server_layers(t: &mut Tracer, trace: &Trace, cfg: altocumulus::AcConfig) -> LayerResult {
    let mut ac = t.span("system.new", |_| Altocumulus::new(cfg));
    let res = t.span("system.run_detailed", |_| ac.run_detailed(trace));
    let sim = digest(trace, &res.system.completions)?;
    for _ in 1..TRACED_REPS {
        let again = t.span("system.run_detailed", |_| ac.run_detailed(trace));
        if digest(trace, &again.system.completions)? != sim {
            return Err("run_detailed does not repeat".into());
        }
    }
    let mut tel = Telemetry::with_capacity(8 * trace.len(), 256);
    let traced = t.span("telemetry.run_traced", |_| ac.run_traced(trace, &mut tel));
    if digest(trace, &traced.system.completions)? != sim {
        return Err("run_traced does not reproduce run_detailed".into());
    }
    let tails = phase_tails(&tel)?;

    let mut m = Metrics::default();
    let cores = ac.config().total_cores();
    m.push(
        "workload.offered_load",
        trace.offered_load(cores),
        "ratio",
        Base::Untimed,
    );
    let run_s = t.median_secs("system.run_detailed");
    system_metrics(&mut m, run_s, &[&res]);
    counter_metrics(&mut m, trace.len(), &[&res]);
    rack_metrics(&mut m, RackTimes::default());
    for (phase, tail) in PHASES.iter().zip(tails) {
        m.push(&format!("phase.{phase}.tail_us"), tail, "us", Base::Sim);
    }
    Ok((m, sim, format!("{}x1", res.engine), "system.run_detailed"))
}

/// Mean duration of each [`PHASES`] entry within the slowest-1% cohort,
/// in µs, read from the existing phase table (0 for a phase no request
/// went through).
fn phase_tails(tel: &Telemetry) -> Result<[f64; 5], String> {
    let csv = phase_table(tel).to_csv();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines
        .next()
        .ok_or("empty phase table")?
        .split(',')
        .collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .ok_or(format!("phase table lacks column {name}"))
    };
    let (phase_col, tail_col) = (col("phase")?, col("p99_cohort_mean_ns")?);
    let mut tails = [0.0; 5];
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        if let Some(i) = PHASES.iter().position(|p| *p == cells[phase_col]) {
            let ns: f64 = cells[tail_col]
                .parse()
                .map_err(|e| format!("phase table cell {:?}: {e}", cells[tail_col]))?;
            tails[i] = ns / 1e3;
        }
    }
    Ok(tails)
}

fn rack_layers(t: &mut Tracer, trace: &Trace, cfg: RackConfig) -> LayerResult {
    let rack = t.span("rack.new", |_| RackWorld::new(cfg.clone()));
    // Per repetition: run, route, fan-out wall, per-server sum and max.
    let mut times: Vec<[f64; 5]> = Vec::with_capacity(TRACED_REPS);
    let mut kept: Option<(RackResult, ServerRuns, u64)> = None;
    for _ in 0..TRACED_REPS {
        let (res, servers) = rack_decomposition(t, &rack, trace, &cfg)?;
        let per_server: Vec<f64> = servers.iter().filter_map(|(_, s)| *s).collect();
        let last = |name| {
            t.spans()
                .iter()
                .rev()
                .find(|s| s.name == name)
                .map_or(0.0, Span::secs)
        };
        times.push([
            last("rack.run"),
            last("rack.route"),
            last("rack.servers"),
            per_server.iter().sum(),
            per_server.iter().copied().fold(0.0, f64::max),
        ]);
        let d = digest(trace, &res.system.completions)?;
        match &kept {
            None => kept = Some((res, servers, d)),
            Some((_, _, first)) if *first != d => {
                return Err("RackWorld::run does not repeat".into());
            }
            Some(_) => {}
        }
    }
    let (res, servers, sim) = kept.expect("TRACED_REPS >= 1");
    let col = |i: usize| median(&times.iter().map(|t| t[i]).collect::<Vec<_>>());
    let (route_s, wall_s, sum_s, max_s) = (col(1), col(2), col(3), col(4));
    let residual_s = median(&times.iter().map(|t| t[0] - t[1] - t[2]).collect::<Vec<_>>());
    let results: Vec<&AcResult> = servers
        .iter()
        .map(|(out, _)| match out {
            ServerOutcome::Ac(r) => Ok(&**r),
            ServerOutcome::Baseline(_) => Err("every rack server runs Altocumulus".to_string()),
        })
        .collect::<Result<_, _>>()?;

    let mut m = Metrics::default();
    m.push(
        "workload.offered_load",
        trace.offered_load(cfg.total_cores()),
        "ratio",
        Base::Untimed,
    );
    system_metrics(&mut m, sum_s, &results);
    counter_metrics(&mut m, trace.len(), &results);
    let assigned: Vec<f64> = res.per_server.iter().map(|p| p.assigned as f64).collect();
    let mean_assigned = assigned.iter().sum::<f64>() / assigned.len() as f64;
    rack_metrics(
        &mut m,
        RackTimes {
            routing: res.routing,
            route_s,
            wall_s,
            sum_s,
            max_s,
            residual_s,
            efficiency: sum_s / (wall_s * FANOUT_THREADS as f64),
            imbalance: assigned.iter().copied().fold(0.0, f64::max) / mean_assigned,
        },
    );
    for phase in PHASES {
        m.push(&format!("phase.{phase}.tail_us"), 0.0, "us", Base::Sim);
    }
    let mut engines: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &results {
        *engines.entry(r.engine).or_default() += 1;
    }
    let engines = engines
        .iter()
        .map(|(e, n)| format!("{e}x{n}"))
        .collect::<Vec<_>>()
        .join(",");
    Ok((m, sim, engines, "rack.run"))
}

/// Each server's outcome, with its host seconds when it ran in the fan-out.
type ServerRuns = Vec<(ServerOutcome, Option<f64>)>;

/// One `RackWorld::run` plus its outside-in decomposition: the routing
/// pass and one `Altocumulus` run per server on the sub-traces it returns,
/// fanned out like `RackWorld::run` does. Servers that die were already
/// simulated inside `route()` and carry no time of their own.
fn rack_decomposition(
    t: &mut Tracer,
    rack: &RackWorld,
    trace: &Trace,
    cfg: &RackConfig,
) -> Result<(RackResult, ServerRuns), String> {
    let res = t.span("rack.run", |_| rack.run(trace, FANOUT_THREADS));
    let mut routing = t.span("rack.route", |_| rack.route(trace));
    let jobs: Vec<(usize, Option<ServerOutcome>)> = std::mem::take(&mut routing.dead_runs)
        .into_iter()
        .enumerate()
        .collect();
    let servers = t.span("rack.servers", |t| {
        let runs = simcore::parallel_map(jobs, FANOUT_THREADS, |_, (s, pre)| {
            if let Some(pre) = pre {
                return (pre, None);
            }
            let ServerSpec::Ac(spec) = cfg.server_spec(s) else {
                unreachable!("RackConfig::ac builds AC servers")
            };
            let start = Instant::now();
            let r = Altocumulus::new(spec).run_detailed(&routing.sub_traces[s]);
            (
                ServerOutcome::Ac(Box::new(r)),
                Some((start, Instant::now())),
            )
        });
        runs.into_iter()
            .enumerate()
            .map(|(s, (out, when))| {
                let secs = when.map(|(a, b)| {
                    t.record(format!("server.run_detailed.srv{s}"), a, b);
                    (b - a).as_secs_f64()
                });
                (out, secs)
            })
            .collect::<Vec<_>>()
    });
    check_decomposition(cfg, &res, &servers)?;
    Ok((res, servers))
}

/// `route()` plus the per-server runs must reproduce `RackWorld::run`:
/// per-server event counts and credited completions (completions on a
/// dying server count only before its death), and the totals.
fn check_decomposition(
    cfg: &RackConfig,
    res: &RackResult,
    servers: &ServerRuns,
) -> Result<(), String> {
    let mut events = 0;
    let mut completed = 0;
    for (s, (out, _)) in servers.iter().enumerate() {
        let cut = cfg.death_of(s).map_or(u64::MAX, |d| d.as_ps());
        let credited = out
            .system()
            .completions
            .iter()
            .filter(|c| c.finish.as_ps() < cut)
            .count();
        let want = &res.per_server[s];
        if out.events() != want.events || credited != want.completed {
            return Err(format!(
                "srv{s}: route()+run_detailed gives {} events / {credited} completions, \
                 RackWorld::run {} / {}",
                out.events(),
                want.events,
                want.completed
            ));
        }
        events += out.events();
        completed += credited;
    }
    if events != res.events || completed != res.system.completions.len() {
        return Err(format!(
            "decomposition totals {events} events / {completed} completions, \
             RackWorld::run {} / {}",
            res.events,
            res.system.completions.len()
        ));
    }
    Ok(())
}

/// `system.*`: the event engine, summed over servers (`run_s` is the sum
/// of per-server host time).
fn system_metrics(m: &mut Metrics, run_s: f64, results: &[&AcResult]) {
    let events: u64 = results.iter().map(|r| r.summary.events).sum();
    let peak = results
        .iter()
        .map(|r| r.summary.peak_queue)
        .max()
        .unwrap_or(0);
    m.push("system.run_s", run_s, "s", Base::Host);
    m.push("system.events", events as f64, "count", Base::Untimed);
    m.push(
        "system.ns_per_event",
        run_s * 1e9 / events.max(1) as f64,
        "ns",
        Base::Host,
    );
    m.push(
        "system.peak_event_queue",
        peak as f64,
        "count",
        Base::Untimed,
    );
}

/// Reads one counter of a server's result.
type Counter = fn(&AcResult) -> u64;

/// Counters of the public result structs, by metric name.
const COUNTERS: [(&str, Counter); 15] = [
    ("runtime.ticks", |r| r.stats.ticks),
    ("runtime.update_messages", |r| r.stats.update_messages),
    ("runtime.migrate_messages", |r| r.stats.migrate_messages),
    ("runtime.migrated_requests", |r| r.stats.migrated_requests),
    ("runtime.guard_blocked", |r| r.stats.guard_blocked),
    ("hw.nacked_messages", |r| r.stats.nacked_messages),
    ("hw.nacked_requests", |r| r.stats.nacked_requests),
    ("rpcstack.nic_rng_draws", |r| r.rng.nic),
    ("faults.worker_failures", |r| r.faults.worker_failures),
    ("faults.manager_failures", |r| r.faults.manager_failures),
    ("faults.takeovers", |r| r.faults.takeovers),
    ("faults.resteered_requests", |r| r.faults.resteered_requests),
    ("faults.migrate_timeouts", |r| r.faults.migrate_timeouts),
    ("faults.emergency_migrations", |r| {
        r.faults.emergency_migrations
    }),
    ("faults.rng_draws", |r| r.rng.faults),
];

/// `runtime.*`, `hw.*`, `rpcstack.*` and `faults.*`, summed over servers,
/// plus the migrated share of `offered` and the accepted share of MIGRATE
/// messages (1 when none was sent: nothing was refused).
pub fn counter_metrics(m: &mut Metrics, offered: usize, results: &[&AcResult]) {
    for (name, counter) in COUNTERS {
        let total: u64 = results.iter().map(|r| counter(r)).sum();
        m.push(name, total as f64, "count", Base::Untimed);
    }
    let get = |name| m.get(name).expect("pushed above");
    let share = get("runtime.migrated_requests") / offered as f64;
    let (sent, nacked) = (get("runtime.migrate_messages"), get("hw.nacked_messages"));
    let accept = if sent > 0.0 {
        (sent - nacked) / sent
    } else {
        1.0
    };
    m.push("runtime.migrated_share", share, "ratio", Base::Untimed);
    m.push("hw.accept_ratio", accept, "ratio", Base::Untimed);
}

/// Host-time decomposition and routing counters of a rack run; all zero
/// for a single server.
#[derive(Debug, Default)]
struct RackTimes {
    routing: RoutingStats,
    route_s: f64,
    wall_s: f64,
    sum_s: f64,
    max_s: f64,
    residual_s: f64,
    efficiency: f64,
    imbalance: f64,
}

/// `rack.*`.
fn rack_metrics(m: &mut Metrics, r: RackTimes) {
    m.push("rack.route_s", r.route_s, "s", Base::Host);
    m.push("rack.servers_wall_s", r.wall_s, "s", Base::Host);
    m.push("rack.servers_sum_s", r.sum_s, "s", Base::Host);
    m.push("rack.servers_max_s", r.max_s, "s", Base::Host);
    m.push("rack.residual_s", r.residual_s, "s", Base::Host);
    m.push(
        "rack.parallel_efficiency",
        r.efficiency,
        "ratio",
        Base::Untimed,
    );
    let g = r.routing;
    for (name, v) in [
        ("rack.new_bindings", g.new_bindings),
        ("rack.affinity_hits", g.affinity_hits),
        ("rack.affinity_rebinds", g.affinity_rebinds),
        ("rack.dead_rebinds", g.dead_rebinds),
        ("rack.limbo_redirects", g.limbo_redirects),
        ("rack.death_retries", g.death_retries),
        ("rack.rng_draws", g.rack_rng_draws),
    ] {
        m.push(name, v as f64, "count", Base::Untimed);
    }
    let tor_us = g.tor_max_queue_ps as f64 / 1e6;
    m.push("rack.tor_max_queue_us", tor_us, "us", Base::Sim);
    m.push(
        "rack.assigned_imbalance",
        r.imbalance,
        "ratio",
        Base::Untimed,
    );
}

/// Checks that `workload` still exercises the layer it was chosen for.
pub fn purpose_guard(workload: Workload, layers: &Metrics) -> Result<(), String> {
    let get = |name: &str| {
        layers
            .get(name)
            .ok_or_else(|| format!("guard needs metric {name}"))
    };
    let share = get("runtime.migrated_share")?;
    match workload {
        Workload::ServerBursty => {
            if share < 0.02 {
                return Err(format!(
                    "server_bursty migrated only {:.2}% of requests",
                    100.0 * share
                ));
            }
        }
        Workload::RackFixed => {
            if share >= 0.01 {
                return Err(format!(
                    "rack_fixed migrated {:.2}% of requests",
                    100.0 * share
                ));
            }
            let rack_s = get("rack.route_s")? + get("rack.residual_s")?;
            let run_s = rack_s + get("rack.servers_wall_s")?;
            if rack_s < 0.4 * run_s {
                return Err(format!(
                    "rack_fixed spent only {:.0}% of its run in the rack layer",
                    100.0 * rack_s / run_s
                ));
            }
        }
        Workload::RackFaults => {
            let actions = [
                "faults.worker_failures",
                "faults.takeovers",
                "faults.resteered_requests",
                "faults.migrate_timeouts",
            ]
            .iter()
            .map(|n| get(n))
            .sum::<Result<f64, String>>()?;
            if actions == 0.0 || get("rack.death_retries")? == 0.0 {
                return Err("rack_faults recorded no fault actions or no death retries".into());
            }
        }
    }
    Ok(())
}
