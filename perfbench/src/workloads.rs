//! The three benchmark workloads, built only from the simulator's public
//! constructors (`AcConfig::ac_int`, `RackConfig::ac`, `TraceBuilder`,
//! `clustered_bursty`, `FaultPlan::stress`).
//!
//! Every workload is open loop in simulated time: the trace fixes the
//! arrival schedule in advance, whatever the completions do. All inputs
//! derive from the seed alone.

use altocumulus::config::Resilience;
use altocumulus::rack::{RackConfig, RackResult, RackWorld, ServerDeath, ServerSpec};
use altocumulus::{AcConfig, AcResult, Altocumulus};
use simcore::faults::FaultPlan;
use simcore::rng::derive_seed;
use simcore::time::{SimDuration, SimTime};
use workload::arrival::PoissonProcess;
use workload::{clustered_bursty, Completion, ServiceDistribution, Trace, TraceBuilder};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning: the determinism check proves that a different
/// seed gives different simulated metrics.
pub const HELD_OUT_SEED: u64 = 7_919;
/// Offered load (λ·E[S] / cores) of every workload. It sits below the knee
/// of `server_bursty`, whose pooled p99 triples at some seeds from 0.75 on.
pub const LOAD: f64 = 0.7;
/// Threads the rack workloads fan per-server simulations out over.
pub const FANOUT_THREADS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 256-core ACint server under clustered MMPP bursts.
    ServerBursty,
    /// 32 healthy 32-core servers behind the ToR, fixed service.
    RackFixed,
    /// 8 faulted 64-core servers, one of which dies mid-run.
    RackFaults,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ServerBursty,
        Workload::RackFixed,
        Workload::RackFaults,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServerBursty => "server_bursty",
            Workload::RackFixed => "rack_fixed",
            Workload::RackFaults => "rack_faults",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per trace at benchmark scale.
    pub fn requests(self) -> usize {
        match self {
            Workload::ServerBursty | Workload::RackFixed => 200_000,
            // Fault plans place a fixed number of faults per trace, so
            // shorter traces and more of them steady the pooled tail.
            Workload::RackFaults => 100_000,
        }
    }

    /// Independent traces one run simulates; the simulated metrics pool
    /// all of them.
    pub fn traces(self) -> usize {
        match self {
            Workload::ServerBursty => 12,
            Workload::RackFixed => 8,
            Workload::RackFaults => 64,
        }
    }

    /// Simulated cores the offered load is computed over.
    pub fn cores(self) -> usize {
        match self {
            Workload::ServerBursty => 256,
            Workload::RackFixed => 32 * 32,
            Workload::RackFaults => 8 * 64,
        }
    }

    fn service(self) -> ServiceDistribution {
        match self {
            Workload::ServerBursty | Workload::RackFaults => ServiceDistribution::bimodal_paper(),
            Workload::RackFixed => ServiceDistribution::Fixed(SimDuration::from_ns(850)),
        }
    }

    /// Builds the arrival trace of `requests` requests from `seed`.
    pub fn trace(self, seed: u64, requests: usize) -> Trace {
        let dist = self.service();
        let rate = PoissonProcess::rate_for_load(LOAD, self.cores(), dist.mean());
        match self {
            Workload::ServerBursty => clustered_bursty(dist, rate, 8, 8, requests, seed),
            Workload::RackFixed | Workload::RackFaults => {
                TraceBuilder::new(PoissonProcess::new(rate), dist)
                    .requests(requests)
                    .connections(4 * self.cores() as u32)
                    .seed(seed)
                    .build()
            }
        }
    }

    /// Builds the system under test for `trace` (fault plans and the server
    /// death are placed relative to the trace's arrival span).
    pub fn system(self, seed: u64, trace: &Trace) -> System {
        let mean = self.service().mean();
        match self {
            Workload::ServerBursty => {
                let mut cfg = AcConfig::ac_int(16, 16, mean);
                cfg.seed = seed;
                System::Server(cfg)
            }
            Workload::RackFixed => {
                let mut rack = RackConfig::ac(32, 2, 16, mean);
                rack.seed = seed;
                set_template_seed(&mut rack, seed);
                System::Rack(rack)
            }
            Workload::RackFaults => {
                let (servers, groups, group_size) = (8, 4, 16);
                let mut rack = RackConfig::ac(servers, groups, group_size, mean);
                rack.seed = seed;
                set_template_seed(&mut rack, seed);
                let ServerSpec::Ac(cfg) = &mut rack.template else {
                    unreachable!("RackConfig::ac builds an AC template")
                };
                cfg.resilience = Resilience::hardened();
                let horizon = trace.requests().last().map_or(SimTime::ZERO, |r| r.arrival);
                let workers: Vec<usize> = (0..groups * group_size)
                    .filter(|c| c % group_size != 0)
                    .collect();
                rack.server_faults = (0..servers)
                    .map(|s| {
                        FaultPlan::stress(derive_seed(seed, s as u64), &workers, 0.25, horizon)
                    })
                    .collect();
                rack.deaths = vec![ServerDeath {
                    server: 4,
                    at: SimTime::from_ps(horizon.as_ps() / 2),
                }];
                System::Rack(rack)
            }
        }
    }
}

/// Seed of the `k`-th trace of a run at `seed`.
pub fn trace_seed(seed: u64, k: usize) -> u64 {
    derive_seed(seed, k as u64)
}

fn set_template_seed(rack: &mut RackConfig, seed: u64) {
    if let ServerSpec::Ac(cfg) = &mut rack.template {
        cfg.seed = seed;
    }
}

/// Configuration of the system under test.
#[derive(Debug, Clone)]
pub enum System {
    /// A single Altocumulus server.
    Server(AcConfig),
    /// A rack of servers behind a ToR.
    Rack(RackConfig),
}

/// The constructed system, ready to run traces.
#[derive(Debug, Clone)]
pub enum World {
    /// A single Altocumulus server.
    Server(Altocumulus),
    /// A rack of servers behind a ToR.
    Rack(RackWorld),
}

impl World {
    /// Constructs the world (`Altocumulus::new` / `RackWorld::new`).
    pub fn new(system: System) -> World {
        match system {
            System::Server(cfg) => World::Server(Altocumulus::new(cfg)),
            System::Rack(cfg) => World::Rack(RackWorld::new(cfg)),
        }
    }

    /// Simulates `trace`; a rack fans its servers out over `threads`.
    pub fn run(&self, trace: &Trace, threads: usize) -> Outcome {
        match self {
            World::Server(ac) => Outcome::Server(Box::new(ac.clone().run_detailed(trace))),
            World::Rack(rack) => Outcome::Rack(Box::new(rack.run(trace, threads))),
        }
    }
}

/// The result of one simulation.
#[derive(Debug)]
pub enum Outcome {
    /// `Altocumulus::run_detailed`'s result.
    Server(Box<AcResult>),
    /// `RackWorld::run`'s result.
    Rack(Box<RackResult>),
}

impl Outcome {
    /// Completions, with ids indexing the offered trace.
    pub fn completions(&self) -> &[Completion] {
        match self {
            Outcome::Server(r) => &r.system.completions,
            Outcome::Rack(r) => &r.system.completions,
        }
    }
}
