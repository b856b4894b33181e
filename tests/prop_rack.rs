//! Property tests of the rack tier's determinism contract.
//!
//! Over random rack shapes, routing policies, per-server stress plans and
//! optional whole-server deaths:
//!
//! - a rack run is byte-identical across repeated invocations and across
//!   `parallel_map` thread counts (the serial routing pass fixes every
//!   sub-trace before any server simulates);
//! - routing round-trips: `route()` and `run()` agree on per-server
//!   assignment, and every offered request either completes exactly once
//!   (unique global id, latency at least its drawn service time) or is
//!   counted `lost` — never both, never twice, even when death retries
//!   re-route a request through a second server;
//! - the merge reproduces its oracle: `run()` equals `route()` plus
//!   independent per-server runs plus a `(finish, server, completion-seq)`
//!   sort of the death-cut completions, and every server's completion list
//!   is non-decreasing in `finish` (the k-way merge's precondition).

use altocumulus::ServerSpec;
use altocumulus::{Altocumulus, RackConfig, RackResult, RackWorld, RoutePolicy, ServerDeath};
use proptest::prelude::*;
use simcore::faults::FaultPlan;
use simcore::time::SimTime;
use workload::{Completion, PoissonProcess, RequestId, ServiceDistribution, Trace, TraceBuilder};

#[derive(Debug, Clone)]
struct Case {
    servers: usize,
    groups: usize,
    group_size: usize,
    load: f64,
    connections: u32,
    seed: u64,
    affinity: bool,
    power_k: usize,
    stress: bool,
    death_frac: Option<f64>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (
            1usize..=4,  // servers
            1usize..=2,  // groups per server
            2usize..=6,  // group size
            0.1f64..0.8, // offered load
            1u32..32,    // connections
            0u64..1000,  // seed
        ),
        any::<bool>(),
        1usize..=4,
        any::<bool>(),
        prop_oneof![Just(None), (0.3f64..0.8).prop_map(Some)],
    )
        .prop_map(
            |(
                (servers, groups, group_size, load, connections, seed),
                affinity,
                power_k,
                stress,
                death_frac,
            )| {
                Case {
                    servers,
                    groups,
                    group_size,
                    load,
                    connections,
                    seed,
                    affinity,
                    power_k,
                    stress,
                    death_frac,
                }
            },
        )
}

fn build(case: &Case) -> (RackConfig, Trace) {
    let dist = ServiceDistribution::bimodal_paper();
    let cores = case.groups * case.group_size;
    let rate = PoissonProcess::rate_for_load(case.load, case.servers * cores, dist.mean());
    let trace = TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(400)
        .connections(case.connections)
        .seed(case.seed)
        .build();
    let horizon = trace.requests().last().unwrap().arrival;

    let mut rack = RackConfig::ac(case.servers, case.groups, case.group_size, dist.mean());
    rack.seed = case.seed ^ 0xACC;
    rack.policy = RoutePolicy {
        power_k: case.power_k,
        affinity: case.affinity,
        est_service: dist.mean(),
        ..Default::default()
    };
    if case.stress {
        // Intra-server faults on worker cores only (manager tiles are
        // excluded by AcConfig's fault validation).
        let workers: Vec<usize> = (0..cores).filter(|c| c % case.group_size != 0).collect();
        rack.server_faults = (0..case.servers)
            .map(|s| FaultPlan::stress(0xF00 + case.seed + s as u64, &workers, 0.2, horizon))
            .collect();
    }
    if let Some(f) = case.death_frac {
        rack.deaths = vec![ServerDeath {
            server: case.seed as usize % case.servers,
            at: SimTime::from_ps((horizon.as_ps() as f64 * f) as u64),
        }];
    }
    (rack, trace)
}

fn digest(r: &RackResult) -> String {
    format!(
        "{:?}|{:?}|{:?}|{}|{}|{}",
        r.system.completions, r.routing, r.per_server, r.offered, r.events, r.peak_queue
    )
}

/// The rack run rebuilt from its parts: the routing pass, each server's
/// completions (dead servers were simulated during routing; the rest run
/// here), the death cut and the `(finish, server, completion-seq)` sort.
/// Returns the merged completions and the per-server credited counts.
fn oracle_merge(world: &RackWorld, trace: &Trace) -> (Vec<Completion>, Vec<usize>) {
    let cfg = world.config();
    let routing = world.route(trace);
    let cores = cfg.cores_per_server();
    let mut merged = Vec::new();
    let mut credited = Vec::new();
    for (s, sub) in routing.sub_traces.iter().enumerate() {
        let completions = match &routing.dead_runs[s] {
            Some(out) => out.system().completions.clone(),
            None if sub.is_empty() => Vec::new(),
            None => {
                let ServerSpec::Ac(spec) = cfg.server_spec(s) else {
                    panic!("rack template is AC")
                };
                Altocumulus::new(spec).run_detailed(sub).system.completions
            }
        };
        assert!(
            completions.windows(2).all(|w| w[0].finish <= w[1].finish),
            "srv{s}: completions are not in finish order"
        );
        let death = cfg.death_of(s);
        credited.push(0);
        for (seq, c) in completions.iter().enumerate() {
            if death.is_some_and(|d| c.finish >= d) {
                continue;
            }
            credited[s] += 1;
            let global = routing.global_of[s][c.id.0 as usize];
            merged.push((
                (c.finish, s, seq),
                Completion {
                    id: RequestId(global as u64),
                    arrival: trace.requests()[global].arrival,
                    finish: c.finish,
                    core: s * cores + c.core,
                    migrated: c.migrated,
                },
            ));
        }
    }
    merged.sort_unstable_by_key(|&(key, _)| key);
    (merged.into_iter().map(|(_, c)| c).collect(), credited)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rack_runs_are_deterministic_across_threads_and_repeats(case in case_strategy()) {
        let (rack, trace) = build(&case);
        let world = RackWorld::new(rack);
        let base = world.run(&trace, 1);
        let again = world.run(&trace, 1);
        prop_assert_eq!(digest(&base), digest(&again), "repeat run diverged");
        for threads in [2usize, 4] {
            let t = world.run(&trace, threads);
            prop_assert_eq!(digest(&base), digest(&t), "threads={} diverged", threads);
        }
    }

    #[test]
    fn rack_runs_conserve_requests(case in case_strategy()) {
        let (rack, trace) = build(&case);
        let world = RackWorld::new(rack);

        // route()/run() agree on what each server was asked to do.
        let routing = world.route(&trace);
        let r = world.run(&trace, 1);
        for (s, sub) in routing.sub_traces.iter().enumerate() {
            prop_assert_eq!(r.per_server[s].assigned, sub.len());
        }

        // Every request completes exactly once or is lost, never both.
        prop_assert_eq!(
            r.system.completions.len() as u64 + r.routing.lost,
            r.offered as u64
        );
        let mut seen = vec![false; r.offered];
        for c in &r.system.completions {
            let i = c.id.0 as usize;
            prop_assert!(!seen[i], "request {} completed twice", i);
            seen[i] = true;
            let req = &trace.requests()[i];
            prop_assert_eq!(c.arrival, req.arrival);
            prop_assert!(c.latency() >= req.service);
        }
        // Losses only ever come from a rack whose every server died.
        if r.routing.lost > 0 {
            prop_assert!(case.death_frac.is_some() && case.servers == 1);
        }
    }

    #[test]
    fn rack_merge_matches_the_sorted_oracle(case in case_strategy()) {
        let (rack, trace) = build(&case);
        let world = RackWorld::new(rack);
        let (want, credited) = oracle_merge(&world, &trace);
        for threads in [1usize, 2] {
            let r = world.run(&trace, threads);
            prop_assert_eq!(&r.system.completions, &want, "threads={}", threads);
            for (s, p) in r.per_server.iter().enumerate() {
                prop_assert_eq!(p.completed, credited[s], "{}", &p.label);
            }
        }
    }
}
