//! Hot-path measurement harness: events/sec and peak event-queue
//! population for the `sim_throughput` configurations, emitted as
//! `BENCH_hotpath.json` for before/after comparison (see `bench_hotpath.sh`).
//!
//! Each case runs several iterations and reports the *fastest* wall time —
//! best-of is far more stable than a mean on a shared/noisy machine, and the
//! minimum is the closest observable to the true cost of the code.

use altocumulus::telemetry::phase_table;
use altocumulus::{AcConfig, Altocumulus, ControlPlane, RackConfig, RackWorld};
use bench::record::{rack_shape, rack_sweep_cell};
use bench::{capture_telemetry, export_trace, trace_out_arg};
use schedulers::common::RpcSystem;
use schedulers::jbsq::{Jbsq, JbsqVariant};
use simcore::time::SimDuration;
use std::time::Instant;
use workload::{PoissonProcess, ServiceDistribution, TraceBuilder};

const ITERS: usize = 7;

struct Measured {
    wall_ms: f64,
    events: u64,
    peak_queue: usize,
    /// Best-of wall time of the rack routing pass alone (rack rows only).
    route_ms: Option<f64>,
}

impl Measured {
    fn unmeasured() -> Self {
        Measured {
            wall_ms: f64::MAX,
            events: 0,
            peak_queue: 0,
            route_ms: None,
        }
    }
}

fn trace(cores: usize, requests: usize, load: f64) -> workload::Trace {
    let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
    let rate = PoissonProcess::rate_for_load(load, cores, dist.mean());
    TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(requests)
        .connections(16)
        .seed(1)
        .build()
}

fn measure(cfg: &AcConfig, t: &workload::Trace) -> Measured {
    let mut best = Measured::unmeasured();
    for _ in 0..ITERS {
        let mut sys = Altocumulus::new(cfg.clone());
        let start = Instant::now();
        let r = sys.run_detailed(t);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r.system.completions.len(), t.len());
        best.wall_ms = best.wall_ms.min(ms);
        best.events = r.summary.events;
        best.peak_queue = r.summary.peak_queue;
    }
    best
}

fn hw_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn emit(label: &str, m: &Measured, trailing_comma: bool) {
    let eps = m.events as f64 / (m.wall_ms / 1e3);
    println!("  \"{label}\": {{");
    println!("    \"wall_ms\": {:.2},", m.wall_ms);
    println!("    \"events\": {},", m.events);
    println!("    \"events_per_sec\": {eps:.0},");
    // Per-event cost in nanoseconds — the flatness metric: a size-independent
    // hot path keeps this constant as the mesh grows.
    println!(
        "    \"ns_per_event\": {:.1},",
        m.wall_ms * 1e6 / m.events as f64
    );
    println!("    \"peak_event_queue\": {},", m.peak_queue);
    if let Some(route_ms) = m.route_ms {
        println!("    \"route_ms\": {route_ms:.2},");
    }
    // Recorded per row (not just globally) so a row compared on its own
    // still says what kind of host measured it.
    println!("    \"hw_threads\": {}", hw_threads());
    println!("  }}{}", if trailing_comma { "," } else { "" });
}

fn main() {
    let mean = SimDuration::from_ns(850);

    // Case 1: the historical 64-core configuration (4 groups x 16).
    let t64 = trace(64, 20_000, 0.8);
    let small = measure(&AcConfig::ac_int(4, 16, mean), &t64);

    // Case 2: the paper-scale 256-core mesh (16 groups x 16), under both
    // control planes so the manager-plane elision win stays recorded
    // head-to-head: elided (the default: manager mailboxes and idle-tick
    // fast-forward) and event-driven (one event per UPDATE and tick).
    let t256 = trace(256, 40_000, 0.6);
    let big_cfg = AcConfig::ac_int(16, 16, mean);
    let big_elided = measure(&big_cfg, &t256);
    let mut legacy_cfg = big_cfg.clone();
    legacy_cfg.control_plane = ControlPlane::EventDriven;
    let big_legacy = measure(&legacy_cfg, &t256);

    // A 1024-core (32x32 mesh, 64 groups x 16) case.
    let t1024 = trace(1024, 60_000, 0.6);
    let huge = measure(&AcConfig::ac_int(64, 16, mean), &t1024);

    // Rack tier: the CI quick shape (4 AC servers x 16 cores) behind the
    // two-level scheduler, healthy, at the top quick load. One iteration is
    // the full stack — serial ToR routing pass, four server simulations,
    // deterministic merge — so this row moves when any rack layer does.
    let (rack_cfg, rack_trace) =
        rack_sweep_cell(rack_shape::QUICK, 0.8, rack_shape::requests(true), false);
    let rack_world = RackWorld::new(rack_cfg);
    let mut rack = Measured::unmeasured();
    for _ in 0..ITERS {
        let start = Instant::now();
        let r = rack_world.run(&rack_trace, 1);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r.system.completions.len(), rack_trace.len());
        rack.wall_ms = rack.wall_ms.min(ms);
        rack.events = r.events;
        rack.peak_queue = r.peak_queue;
    }

    // Rack tier at scale: 32 AC servers of 2x16 cores, fixed 850 ns
    // service at load 0.7, fanned out on one thread. The full run is
    // recorded with the serial routing pass alone beside it, so a change
    // to routing or to the merge shows up in its own column.
    let rack32_cfg = RackConfig::ac(32, 2, 16, mean);
    let rack32_trace = {
        let dist = ServiceDistribution::Fixed(mean);
        let rate = PoissonProcess::rate_for_load(0.7, rack32_cfg.total_cores(), dist.mean());
        TraceBuilder::new(PoissonProcess::new(rate), dist)
            .requests(100_000)
            .connections(4096)
            .seed(1)
            .build()
    };
    let rack32_world = RackWorld::new(rack32_cfg);
    let mut rack32 = Measured::unmeasured();
    let mut route_best = f64::MAX;
    for _ in 0..ITERS {
        let start = Instant::now();
        let r = rack32_world.run(&rack32_trace, 1);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r.system.completions.len(), rack32_trace.len());
        rack32.wall_ms = rack32.wall_ms.min(ms);
        rack32.events = r.events;
        rack32.peak_queue = r.peak_queue;
        let start = Instant::now();
        let routing = rack32_world.route(&rack32_trace);
        route_best = route_best.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(routing.stats, r.routing, "route() diverged from run()");
    }
    rack32.route_ms = Some(route_best);

    // Nebula baseline: wall time only (RpcSystem::run has no summary).
    let mut nb_best_ms = f64::MAX;
    for _ in 0..ITERS {
        let mut sys = Jbsq::new(JbsqVariant::Nebula, 64);
        let start = Instant::now();
        let r = sys.run(&t64);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r.completions.len(), t64.len());
        nb_best_ms = nb_best_ms.min(ms);
    }

    let mgr_cut = 100.0 * (1.0 - big_elided.events as f64 / big_legacy.events as f64);

    // Hand-rolled JSON (no serde in the workspace). The "prior" block holds
    // the rows of the build before the idle-period tick short-circuits
    // (lazy Erlang-C threshold, spread bound before planning), measured on
    // the same host alternated with this build.
    println!("{{");
    println!(
        "  \"config_64\": \"20k requests, 64 cores, load 0.8, fixed 850ns, 16 conns, seed 1\","
    );
    println!("  \"config_256\": \"40k requests, 256 cores (16x16), load 0.6, fixed 850ns, 16 conns, seed 1\",");
    println!("  \"config_1024\": \"60k requests, 1024 cores (32x32 mesh, 64 groups x 16), load 0.6, fixed 850ns, 16 conns, seed 1\",");
    println!("  \"config_rack\": \"12k requests, 4 AC servers x 16 cores, load 0.8, bimodal(paper), two-level ToR routing\",");
    println!("  \"config_rack32\": \"100k requests, 32 AC servers x 32 cores (2x16), load 0.7, fixed 850ns, 4096 conns, seed 1, one fan-out thread\",");
    println!("  \"iters_best_of\": {ITERS},");
    println!("  \"hw_threads\": {},", hw_threads());
    emit("altocumulus_int_4x16", &small, true);
    emit("altocumulus_int_16x16_elided", &big_elided, true);
    emit("altocumulus_int_32x32_elided", &huge, true);
    emit("altocumulus_int_16x16_event_driven", &big_legacy, true);
    emit("rack_4x16_ac", &rack, true);
    emit("rack_32x32_fixed", &rack32, true);
    println!("  \"manager_plane_event_cut_pct\": {mgr_cut:.1},");
    println!("  \"nebula_jbsq\": {{ \"wall_ms\": {nb_best_ms:.2} }},");
    println!("  \"prior\": {{");
    println!("    \"altocumulus_int_4x16\": {{ \"wall_ms\": 8.53, \"events\": 67562, \"peak_event_queue\": 1093, \"hw_threads\": 2 }},");
    println!("    \"altocumulus_int_16x16_elided\": {{ \"wall_ms\": 20.25, \"events\": 137790, \"peak_event_queue\": 1246, \"hw_threads\": 2 }},");
    println!("    \"altocumulus_int_32x32_elided\": {{ \"wall_ms\": 58.71, \"events\": 247459, \"peak_event_queue\": 1458, \"hw_threads\": 2 }},");
    println!("    \"altocumulus_int_16x16_event_driven\": {{ \"wall_ms\": 42.14, \"events\": 379587, \"peak_event_queue\": 1483, \"hw_threads\": 2 }},");
    println!("    \"rack_4x16_ac\": {{ \"wall_ms\": 12.36, \"events\": 77379, \"peak_event_queue\": 1036, \"hw_threads\": 2 }},");
    println!("    \"rack_32x32_fixed\": {{ \"wall_ms\": 69.71, \"events\": 336468, \"peak_event_queue\": 1057, \"route_ms\": 10.91, \"hw_threads\": 2 }},");
    println!("    \"nebula_jbsq\": {{ \"wall_ms\": 6.23 }},");
    println!("    \"note\": \"before the idle-period tick short-circuits (lazy Erlang-C threshold, spread bound before planning): fastest of 30 best-of-7 runs alternated with this build on a noisy 2-thread host. This build's fastest over the same 30 runs, and the runs it was faster in: 4x16 7.40 ms (18/30), 16x16 elided 15.43 (29/30), 32x32 elided 62.47 (18/30), 16x16 event-driven 40.05 (22/30), rack 4x16 7.83 (30/30), rack 32x32 62.41 (23/30, route 10.56), nebula 6.37 ms (18/30); every row's events and peak_event_queue are unchanged. The 32x32 row gets only the lazy threshold: its 64 groups have UPDATE offsets past the period, which turns the shared-view fast mode (and with it the spread bound) off, so its difference is within the host's run-to-run spread\"");
    println!("  }}");
    println!("}}");

    // Optional telemetry export of the 64-core case. Stdout is the bench
    // JSON consumed by bench_hotpath.sh, so everything here goes to files
    // and stderr. The traced run must reproduce the measured run exactly
    // (the non-perturbation invariant) — asserted, not assumed.
    if let Some(path) = trace_out_arg() {
        let mut tel = capture_telemetry(t64.len());
        let mut sys = Altocumulus::new(AcConfig::ac_int(4, 16, mean));
        let r = sys.run_traced(&t64, &mut tel);
        assert_eq!(
            r.summary.events, small.events,
            "telemetry perturbed the run"
        );
        assert_eq!(
            r.summary.peak_queue, small.peak_queue,
            "telemetry perturbed the run"
        );
        let probes = export_trace(&tel, &path);
        eprintln!(
            "trace: {} span points -> {} | {} probe samples -> {}",
            tel.spans.len(),
            path.display(),
            tel.probes.sample_count(),
            probes.display()
        );
        eprintln!("\nphase latency breakdown (64-core case):");
        eprintln!("{}", phase_table(&tel).render());
    }
}
