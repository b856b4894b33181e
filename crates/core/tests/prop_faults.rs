//! Property tests for the fault-injection layer's two determinism
//! contracts (see `simcore::faults`):
//!
//! 1. **Inertness**: a plan that injects nothing observable — whether
//!    because it is empty or because every knob is present but inert
//!    (slowdown-1.0 stragglers, zero-probability NoC faults) — reproduces
//!    the healthy run byte-for-byte on *arbitrary* configurations. The
//!    fault RNG stream is isolated from the workload streams, so merely
//!    enabling the fault layer must not perturb a single completion.
//! 2. **Reproducibility**: a non-trivial generated stress plan yields
//!    byte-identical results across repeated runs — faults are part of
//!    the deterministic simulation, not noise.

use altocumulus::config::Resilience;
use altocumulus::{AcConfig, Altocumulus, ControlPlane};
use proptest::prelude::*;
use simcore::faults::{FaultPlan, NocFaults, Straggler};
use simcore::time::{SimDuration, SimTime};
use workload::{PoissonProcess, ServiceDistribution, Trace, TraceBuilder};

#[derive(Debug, Clone)]
struct FaultCase {
    groups: usize,
    group_size: usize,
    period_ns: u64,
    local_bound: usize,
    event_driven: bool,
    load: f64,
    connections: u32,
    seed: u64,
    intensity: f64,
}

fn case_strategy() -> impl Strategy<Value = FaultCase> {
    (
        2usize..5, // groups (>=2 so takeover/migration targets exist)
        3usize..9, // group_size
        // Same safe-period lattice as prop_control_plane.rs.
        (62u64..999).prop_map(|p| if p.is_multiple_of(3) { p + 1 } else { p }),
        1usize..3, // local bound
        any::<bool>(),
        0.05f64..0.9,
        1u32..32, // connections
        0u64..1000,
        0.1f64..1.0, // stress intensity
    )
        .prop_map(
            |(groups, group_size, period_ns, lb, event_driven, load, conns, seed, intensity)| {
                FaultCase {
                    groups,
                    group_size,
                    period_ns,
                    local_bound: lb,
                    event_driven,
                    load,
                    connections: conns,
                    seed,
                    intensity,
                }
            },
        )
}

fn build(
    case: &FaultCase,
    mean: SimDuration,
    faults: FaultPlan,
    resilience: Resilience,
) -> Altocumulus {
    let mut cfg = AcConfig::ac_int(case.groups, case.group_size, mean);
    cfg.period = SimDuration::from_ns(case.period_ns);
    cfg.local_bound = case.local_bound;
    if case.event_driven {
        cfg.control_plane = ControlPlane::EventDriven;
    }
    cfg.seed = case.seed;
    cfg.faults = faults;
    cfg.resilience = resilience;
    Altocumulus::new(cfg)
}

fn make_trace(case: &FaultCase, dist: ServiceDistribution) -> Trace {
    let cores = case.groups * case.group_size;
    let rate = PoissonProcess::rate_for_load(case.load, cores, dist.mean());
    TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(1200)
        .connections(case.connections)
        .seed(case.seed)
        .build()
}

/// Every fault knob present, none with an observable effect.
fn inert_plan(cores: usize) -> FaultPlan {
    FaultPlan {
        stragglers: vec![Straggler {
            first_core: 0,
            last_core: cores - 1,
            from: SimTime::ZERO,
            until: SimTime::MAX,
            slowdown: 1.0,
        }],
        noc: Some(NocFaults {
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay: SimDuration::from_ns(500),
        }),
        ..FaultPlan::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Enabling the fault layer with nothing to inject is invisible:
    /// byte-identical completions, counters, and even event counts.
    #[test]
    fn inert_plan_reproduces_healthy_run(case in case_strategy()) {
        let dist = ServiceDistribution::Exponential {
            mean: SimDuration::from_ns(850),
        };
        let trace = make_trace(&case, dist);
        let cores = case.groups * case.group_size;
        // Default resilience: every optional reaction (backoff, migrate
        // timers) off, so the fault layer's only possible influence is the
        // plan itself — which is inert here.
        let healthy =
            build(&case, dist.mean(), FaultPlan::default(), Resilience::default())
                .run_detailed(&trace);
        let inert = build(&case, dist.mean(), inert_plan(cores), Resilience::default())
            .run_detailed(&trace);

        prop_assert_eq!(&healthy.system.completions, &inert.system.completions);
        prop_assert_eq!(healthy.system.end_time, inert.system.end_time);
        prop_assert_eq!(healthy.stats.ticks, inert.stats.ticks);
        prop_assert_eq!(healthy.stats.migrate_messages, inert.stats.migrate_messages);
        prop_assert_eq!(healthy.stats.migrated_requests, inert.stats.migrated_requests);
        prop_assert_eq!(healthy.stats.nacked_messages, inert.stats.nacked_messages);
        prop_assert_eq!(healthy.stats.update_messages, inert.stats.update_messages);
        prop_assert_eq!(healthy.stats.guard_blocked, inert.stats.guard_blocked);
        prop_assert_eq!(healthy.summary.events, inert.summary.events);
        prop_assert_eq!(inert.faults, Default::default());
    }

    /// A generated stress plan — stragglers, worker deaths, NoC loss — is
    /// bit-reproducible across runs of the same configuration.
    #[test]
    fn stress_plans_are_reproducible(case in case_strategy()) {
        let dist = ServiceDistribution::Exponential {
            mean: SimDuration::from_ns(850),
        };
        let trace = make_trace(&case, dist);
        let cores = case.groups * case.group_size;
        let horizon = trace.requests().last().unwrap().arrival;
        let workers: Vec<usize> =
            (0..cores).filter(|c| c % case.group_size != 0).collect();
        let plan = FaultPlan::stress(case.seed, &workers, case.intensity, horizon);

        let a = build(&case, dist.mean(), plan.clone(), Resilience::hardened())
            .run_detailed(&trace);
        let b = build(&case, dist.mean(), plan, Resilience::hardened()).run_detailed(&trace);

        prop_assert_eq!(&a.system.completions, &b.system.completions);
        prop_assert_eq!(a.system.end_time, b.system.end_time);
        prop_assert_eq!(a.faults, b.faults);
        prop_assert_eq!(a.stats.ticks, b.stats.ticks);
        prop_assert_eq!(a.stats.migrate_messages, b.stats.migrate_messages);
        prop_assert_eq!(a.stats.migrated_requests, b.stats.migrated_requests);
        prop_assert_eq!(a.summary.events, b.summary.events);
    }
}
