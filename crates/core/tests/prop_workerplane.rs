//! Differential property tests for worker-plane elision: on any
//! configuration and trace, `WorkerPlane::Elided` must be **byte-identical**
//! to the `WorkerPlane::EventDriven` oracle — same completions in the same
//! order, same latency quantiles, same migration counters, same telemetry
//! span chains and probe export, same `peak_queue` (the elided engine
//! tracks the *virtual* queue population: main queue ∪ held pop ∪
//! timeline). The only licensed difference is `summary.events`: batched
//! worker-plane steps are not main-loop events, so the elided count must
//! never exceed the oracle's.
//!
//! The `fixed_service` dimension packs the schedule with exact time ties —
//! the hardest case for the `(time, seq)` lane merge; the period strategy
//! avoids multiples of 3 ns for the tie-freedom reason documented in
//! `prop_control_plane.rs`.

use altocumulus::{AcConfig, Altocumulus, Attachment, ControlPlane, Interface, WorkerPlane};
use proptest::prelude::*;
use simcore::faults::Straggler;
use simcore::telemetry::Telemetry;
use simcore::time::{SimDuration, SimTime};
use workload::{PoissonProcess, ServiceDistribution, Trace, TraceBuilder};

#[derive(Debug, Clone)]
struct WpCase {
    groups: usize,
    group_size: usize,
    attachment: Attachment,
    interface: Interface,
    plane: ControlPlane,
    period_ns: u64,
    bulk: usize,
    concurrency: usize,
    local_bound: usize,
    load: f64,
    connections: u32,
    seed: u64,
    fixed_service: bool,
}

fn case_strategy() -> impl Strategy<Value = WpCase> {
    (
        1usize..7, // groups (1 exercises the no-migration degenerate mesh)
        2usize..9, // group_size
        prop_oneof![Just(Attachment::Integrated), Just(Attachment::RssPcie)],
        prop_oneof![Just(Interface::Isa), Just(Interface::Msr)],
        prop_oneof![Just(ControlPlane::Elided), Just(ControlPlane::EventDriven)],
        // Period: > 61 ns and never a multiple of 3 (see module docs).
        (62u64..999).prop_map(|p| if p.is_multiple_of(3) { p + 1 } else { p }),
        1usize..33, // bulk
        1usize..9,  // concurrency (clamped to bulk below)
        1usize..3,  // local bound
        0.05f64..0.9,
        (1u32..32, 0u64..1000, prop_oneof![Just(false), Just(true)]),
    )
        .prop_map(
            |(
                groups,
                group_size,
                attachment,
                interface,
                plane,
                period_ns,
                bulk,
                conc,
                lb,
                load,
                (conns, seed, fixed_service),
            )| {
                WpCase {
                    groups,
                    group_size,
                    attachment,
                    interface,
                    plane,
                    period_ns,
                    bulk,
                    concurrency: conc.min(bulk),
                    local_bound: lb,
                    load,
                    connections: conns,
                    seed,
                    fixed_service,
                }
            },
        )
}

fn build(case: &WpCase, mean: SimDuration, plane: WorkerPlane) -> Altocumulus {
    let mut cfg = match case.attachment {
        Attachment::Integrated => AcConfig::ac_int(case.groups, case.group_size, mean),
        Attachment::RssPcie => AcConfig::ac_rss(case.groups, case.group_size, mean),
    };
    cfg.interface = case.interface;
    cfg.period = SimDuration::from_ns(case.period_ns);
    cfg.bulk = case.bulk;
    cfg.concurrency = case.concurrency;
    cfg.local_bound = case.local_bound;
    cfg.control_plane = case.plane;
    cfg.worker_plane = plane;
    cfg.seed = case.seed;
    Altocumulus::new(cfg)
}

fn dist_for(case: &WpCase) -> ServiceDistribution {
    let mean = SimDuration::from_ns(850);
    if case.fixed_service {
        ServiceDistribution::Fixed(mean)
    } else {
        ServiceDistribution::Exponential { mean }
    }
}

fn trace_for(case: &WpCase, dist: &ServiceDistribution, requests: usize) -> Trace {
    let cores = case.groups * case.group_size;
    let rate = PoissonProcess::rate_for_load(case.load, cores, dist.mean());
    TraceBuilder::new(PoissonProcess::new(rate), *dist)
        .requests(requests)
        .connections(case.connections)
        .seed(case.seed)
        .build()
}

/// Byte-level comparison of every observable except `summary.events`,
/// which legitimately differs between the engines (and is checked
/// separately: elided never exceeds the oracle).
macro_rules! assert_observables_identical {
    ($elided:expr, $oracle:expr) => {
        prop_assert_eq!(&$elided.system.completions, &$oracle.system.completions);
        prop_assert_eq!($elided.system.end_time, $oracle.system.end_time);
        prop_assert_eq!($elided.system.p99(), $oracle.system.p99());
        prop_assert_eq!(&$elided.stats, &$oracle.stats);
        prop_assert_eq!($elided.faults, $oracle.faults);
        prop_assert_eq!($elided.summary.end_time, $oracle.summary.end_time);
        prop_assert_eq!($elided.summary.stopped_early, $oracle.summary.stopped_early);
        prop_assert_eq!($elided.summary.peak_queue, $oracle.summary.peak_queue);
        prop_assert!(
            $elided.summary.events <= $oracle.summary.events,
            "elision added events: {} > {}",
            $elided.summary.events,
            $oracle.summary.events
        );
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence: elided vs per-event worker plane,
    /// bit-identical observables over random configs.
    #[test]
    fn elided_worker_plane_is_byte_identical(case in case_strategy()) {
        let dist = dist_for(&case);
        let trace = trace_for(&case, &dist, 1200);
        let elided = build(&case, dist.mean(), WorkerPlane::Elided).run_detailed(&trace);
        let oracle = build(&case, dist.mean(), WorkerPlane::EventDriven).run_detailed(&trace);
        assert_observables_identical!(elided, oracle);
    }

    /// Traced runs: the per-request span chains (arrival → dispatch →
    /// worker-arrive → done) and the probe rings must export the exact
    /// oracle byte stream even though most spans are emitted from lazily
    /// materialized timeline events.
    #[test]
    fn telemetry_span_chains_are_identical(case in case_strategy()) {
        let dist = dist_for(&case);
        let trace = trace_for(&case, &dist, 800);
        let mut tel_elided = Telemetry::new();
        let mut tel_oracle = Telemetry::new();
        let elided =
            build(&case, dist.mean(), WorkerPlane::Elided).run_traced(&trace, &mut tel_elided);
        let oracle =
            build(&case, dist.mean(), WorkerPlane::EventDriven).run_traced(&trace, &mut tel_oracle);
        assert_observables_identical!(elided, oracle);
        prop_assert_eq!(tel_elided.spans.points(), tel_oracle.spans.points());
        prop_assert_eq!(tel_elided.probes.to_jsonl(), tel_oracle.probes.to_jsonl());
    }
}

/// Satellite regression: a *non-empty but inert* fault plan (straggler
/// window far past the trace end) must downgrade an `Elided` config to the
/// per-event engine wholesale. Observables stay identical to the healthy
/// elided run, while the event count reveals the downgrade: the downgraded
/// run counts every worker-plane event in the main loop, the healthy
/// elided run does not.
#[test]
fn inert_fault_plan_downgrades_to_event_driven() {
    let mean = SimDuration::from_ns(850);
    let dist = ServiceDistribution::Exponential { mean };
    let rate = PoissonProcess::rate_for_load(0.7, 24, mean);
    let trace = TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(4000)
        .connections(16)
        .seed(7)
        .build();
    let cfg = AcConfig::ac_int(3, 8, mean);
    let healthy_elided = Altocumulus::new(cfg.clone()).run_detailed(&trace);

    let mut inert = cfg.clone();
    inert.faults.stragglers.push(Straggler {
        first_core: 0,
        last_core: 23,
        from: SimTime::from_us(1_000_000),
        until: SimTime::from_us(1_000_001),
        slowdown: 3.0,
    });
    let downgraded = Altocumulus::new(inert.clone()).run_detailed(&trace);
    let mut inert_oracle = inert;
    inert_oracle.worker_plane = WorkerPlane::EventDriven;
    let oracle = Altocumulus::new(inert_oracle).run_detailed(&trace);

    // Downgrade proof: the faulted-but-inert run matches the explicit
    // per-event oracle *including* the main-loop event count...
    assert_eq!(downgraded.summary.events, oracle.summary.events);
    // ...and that count strictly exceeds the healthy elided run's, so the
    // elision cannot have engaged under the fault plan.
    assert!(
        downgraded.summary.events > healthy_elided.summary.events,
        "downgraded {} should exceed elided {}",
        downgraded.summary.events,
        healthy_elided.summary.events
    );
    // Inert faults change nothing observable.
    assert_eq!(
        downgraded.system.completions,
        healthy_elided.system.completions
    );
    assert_eq!(downgraded.system.end_time, healthy_elided.system.end_time);
    assert_eq!(downgraded.stats, healthy_elided.stats);
    assert_eq!(
        downgraded.summary.peak_queue,
        healthy_elided.summary.peak_queue
    );
}
