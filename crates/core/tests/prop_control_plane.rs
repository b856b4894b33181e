//! Differential property tests for the manager-plane event elision: the
//! `Elided` control plane (mailbox UPDATE delivery + idle-tick
//! fast-forward) must be *observationally identical* to the legacy
//! `EventDriven` oracle — same completions, same latencies, same migration
//! counters — while dispatching strictly fewer simulator events.
//!
//! The period strategy below avoids multiples of 3 ns and stays above
//! 61 ns. Every message flight in the model is `C + 3k` ns (NoC hop/flit
//! latencies and the injection stagger are all 3 ns quanta, `C` the
//! runtime cost), and tick instants sit on the lattice `m·(C + P)`, so a
//! message can only land *exactly on* a period boundary if `3k = P`
//! (needs `P ≡ 0 mod 3`) or `3k = C + 2P` (needs `3k > 138`, more than
//! the largest flight these configurations can produce once `P > 61`).
//! Excluding those ties keeps the two control planes' same-instant event
//! ordering provably identical; the paper-default periods (200/100 ns)
//! are in the safe set too, which is what keeps the figure outputs
//! byte-identical.
//!
//! The strategy also leans on the hot-state layout (SoA hot/cold split,
//! slab request arena, NetRX `stage_hint` tail-run bound): few connections
//! concentrate arrivals through RSS imbalance, so migration-heavy meshes
//! build long migrated tails, and the `fixed_service` dimension packs the
//! schedule with exact time ties.
//!
//! The threshold and pattern policies vary too, so both branches of the
//! manager tick's idle-period short-circuits run under the differential: a
//! zero or tiny fixed threshold lets the threshold trigger fire below the
//! model's floor of 1, the naive bound keeps it from firing at all, and
//! threshold-only planning skips the pattern spread test.

use altocumulus::config::PatternPolicy;
use altocumulus::{AcConfig, Altocumulus, Attachment, ControlPlane, Interface, ThresholdPolicy};
use proptest::prelude::*;
use queueing::threshold::ThresholdModel;
use simcore::telemetry::Telemetry;
use simcore::time::SimDuration;
use workload::{PoissonProcess, ServiceDistribution, Trace, TraceBuilder};

#[derive(Debug, Clone)]
struct PlaneCase {
    groups: usize,
    group_size: usize,
    attachment: Attachment,
    interface: Interface,
    period_ns: u64,
    bulk: usize,
    concurrency: usize,
    local_bound: usize,
    predict_only: bool,
    load: f64,
    connections: u32,
    seed: u64,
    fixed_service: bool,
    threshold: ThresholdPolicy,
    patterns: PatternPolicy,
}

fn case_strategy() -> impl Strategy<Value = PlaneCase> {
    (
        1usize..8, // groups
        2usize..9, // group_size
        prop_oneof![Just(Attachment::Integrated), Just(Attachment::RssPcie)],
        prop_oneof![Just(Interface::Isa), Just(Interface::Msr)],
        // Period: > 61 ns and never a multiple of 3 (see module docs).
        (62u64..999).prop_map(|p| if p.is_multiple_of(3) { p + 1 } else { p }),
        1usize..33, // bulk
        1usize..9,  // concurrency (clamped to bulk below)
        1usize..3,  // local bound
        any::<bool>(),
        // Loads from near-idle (deep idle-tick fast-forward) to overload,
        // where the planner's overloaded branch and the stage-hint's long
        // migrated tails appear.
        0.02f64..0.95,
        (
            // Connections: half the cases use a handful, so RSS imbalance
            // maximizes migration traffic.
            prop_oneof![1u32..4, 1u32..32],
            0u64..1000,
            any::<bool>(), // fixed service
            prop_oneof![
                Just(ThresholdPolicy::Model(ThresholdModel::paper_fixed())),
                (0usize..4).prop_map(ThresholdPolicy::Fixed),
                (0.0f64..4.0).prop_map(|slo_ratio| ThresholdPolicy::NaiveUpperBound { slo_ratio }),
            ],
            prop_oneof![Just(PatternPolicy::All), Just(PatternPolicy::ThresholdOnly)],
        ),
    )
        .prop_map(
            |(
                groups,
                group_size,
                attachment,
                interface,
                period_ns,
                bulk,
                conc,
                lb,
                predict_only,
                load,
                (conns, seed, fixed_service, threshold, patterns),
            )| {
                PlaneCase {
                    groups,
                    group_size,
                    attachment,
                    interface,
                    period_ns,
                    bulk,
                    concurrency: conc.min(bulk),
                    local_bound: lb,
                    predict_only,
                    load,
                    connections: conns,
                    seed,
                    fixed_service,
                    threshold,
                    patterns,
                }
            },
        )
}

fn build(case: &PlaneCase, mean: SimDuration, plane: ControlPlane) -> Altocumulus {
    let mut cfg = match case.attachment {
        Attachment::Integrated => AcConfig::ac_int(case.groups, case.group_size, mean),
        Attachment::RssPcie => AcConfig::ac_rss(case.groups, case.group_size, mean),
    };
    cfg.interface = case.interface;
    cfg.period = SimDuration::from_ns(case.period_ns);
    cfg.bulk = case.bulk;
    cfg.concurrency = case.concurrency;
    cfg.local_bound = case.local_bound;
    cfg.predict_only = case.predict_only;
    cfg.threshold = case.threshold;
    cfg.patterns = case.patterns;
    cfg.control_plane = plane;
    cfg.seed = case.seed;
    Altocumulus::new(cfg)
}

fn dist_for(case: &PlaneCase) -> ServiceDistribution {
    let mean = SimDuration::from_ns(850);
    if case.fixed_service {
        ServiceDistribution::Fixed(mean)
    } else {
        ServiceDistribution::Exponential { mean }
    }
}

fn trace_for(case: &PlaneCase, dist: &ServiceDistribution, requests: usize) -> Trace {
    let cores = case.groups * case.group_size;
    let rate = PoissonProcess::rate_for_load(case.load, cores, dist.mean());
    TraceBuilder::new(PoissonProcess::new(rate), *dist)
        .requests(requests)
        .connections(case.connections)
        .seed(case.seed)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence: elided vs event-driven on random
    /// configurations and loads, bit-identical observable output.
    #[test]
    fn elided_control_plane_is_observationally_identical(case in case_strategy()) {
        let dist = dist_for(&case);
        let trace = trace_for(&case, &dist, 1200);
        let el = build(&case, dist.mean(), ControlPlane::Elided).run_detailed(&trace);
        let ev = build(&case, dist.mean(), ControlPlane::EventDriven).run_detailed(&trace);

        // Every completion identical: id, finish instant, core, migrated
        // flag — i.e. every per-request latency byte-for-byte.
        prop_assert_eq!(&el.system.completions, &ev.system.completions);
        prop_assert_eq!(el.system.end_time, ev.system.end_time);
        prop_assert_eq!(el.system.p99(), ev.system.p99());

        // Every migration counter identical, including the analytically
        // accounted ticks and UPDATE broadcasts of fast-forwarded groups.
        prop_assert_eq!(el.stats.ticks, ev.stats.ticks);
        prop_assert_eq!(el.stats.migrate_messages, ev.stats.migrate_messages);
        prop_assert_eq!(el.stats.migrated_requests, ev.stats.migrated_requests);
        prop_assert_eq!(el.stats.nacked_messages, ev.stats.nacked_messages);
        prop_assert_eq!(el.stats.nacked_requests, ev.stats.nacked_requests);
        prop_assert_eq!(el.stats.update_messages, ev.stats.update_messages);
        prop_assert_eq!(el.stats.guard_blocked, ev.stats.guard_blocked);
        prop_assert_eq!(el.stats.predicted.len(), ev.stats.predicted.len());
        for i in 0..trace.len() {
            prop_assert_eq!(el.stats.predicted.contains(i), ev.stats.predicted.contains(i));
        }

        // And the whole point: the elided plane dispatches fewer events.
        prop_assert!(el.summary.events <= ev.summary.events);
        if case.groups > 1 && ev.stats.update_messages > 0 {
            prop_assert!(
                el.summary.events < ev.summary.events,
                "UPDATE elision must remove events: {} vs {}",
                el.summary.events,
                ev.summary.events
            );
        }
    }

    /// Traced runs: the per-request span chains are part of the byte
    /// contract too, and recording must not perturb the run it observes.
    /// Probes sample at ticks, and a dormant group skips its idle ones, so
    /// every elided probe sample must also be an event-driven one. Rings
    /// keep only their newest samples and the event-driven run ticks on to
    /// the end, so only the window its rings still hold is compared.
    #[test]
    fn telemetry_is_identical_across_control_planes(case in case_strategy()) {
        let dist = dist_for(&case);
        let trace = trace_for(&case, &dist, 800);
        let mut tel_el = Telemetry::new();
        let mut tel_ev = Telemetry::new();
        let el = build(&case, dist.mean(), ControlPlane::Elided).run_traced(&trace, &mut tel_el);
        let ev =
            build(&case, dist.mean(), ControlPlane::EventDriven).run_traced(&trace, &mut tel_ev);
        prop_assert_eq!(&el.system.completions, &ev.system.completions);
        prop_assert_eq!(&el.stats, &ev.stats);
        prop_assert_eq!(tel_el.spans.points(), tel_ev.spans.points());
        let (el_series, ev_series) = (tel_el.probes.series(), tel_ev.probes.series());
        prop_assert_eq!(el_series.len(), ev_series.len());
        for (el_ring, ev_ring) in el_series.iter().zip(ev_series) {
            prop_assert_eq!((el_ring.name(), el_ring.key()), (ev_ring.name(), ev_ring.key()));
            let Some(window) = ev_ring.iter().next().map(|s| s.at) else {
                continue;
            };
            let mut ev_samples = ev_ring.iter();
            for sample in el_ring.iter().filter(|s| s.at >= window) {
                prop_assert!(
                    ev_samples.any(|s| s == sample),
                    "{}[{}]: elided sample {:?} missing from the event-driven run",
                    el_ring.name(),
                    el_ring.key(),
                    sample
                );
            }
        }
        let untraced = build(&case, dist.mean(), ControlPlane::Elided).run_detailed(&trace);
        prop_assert_eq!(&el.system.completions, &untraced.system.completions);
        prop_assert_eq!(el.summary.events, untraced.summary.events);
        prop_assert_eq!(el.summary.peak_queue, untraced.summary.peak_queue);
    }
}

/// Deterministic pin: a mesh with heavy RSS imbalance really does exercise
/// the migrated-tail machinery (the `stage_hint` fast path is not allowed
/// to be dead code in this suite), and the control planes still agree on it.
#[test]
fn migration_heavy_mesh_exercises_stage_hint() {
    let mean = SimDuration::from_ns(850);
    let dist = ServiceDistribution::Exponential { mean };
    let rate = PoissonProcess::rate_for_load(0.85, 32, mean);
    let trace = TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(8000)
        .connections(3) // 3 connections over 4 groups: maximal imbalance
        .seed(11)
        .build();
    let cfg = AcConfig::ac_int(4, 8, mean);
    let el = Altocumulus::new(cfg.clone()).run_detailed(&trace);
    assert!(
        el.stats.migrated_requests > 100,
        "imbalanced mesh should migrate heavily, got {}",
        el.stats.migrated_requests
    );
    let mut ev_cfg = cfg;
    ev_cfg.control_plane = ControlPlane::EventDriven;
    let ev = Altocumulus::new(ev_cfg).run_detailed(&trace);
    assert_eq!(el.system.completions, ev.system.completions);
    assert_eq!(el.stats, ev.stats);
}
