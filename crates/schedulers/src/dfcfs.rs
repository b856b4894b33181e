//! d-FCFS: NIC-steered per-core queues with no load balancing.
//!
//! This models IX \[8\] and plain RSS NICs (paper §II-D, Fig. 4(b) without the
//! stealing arrows): the NIC hashes each request to a per-core receive queue
//! and every core serves its own queue FCFS, run-to-completion. Scalable but
//! load-oblivious — the paper's example of unpredictable tail latency under
//! imbalance or dispersed service times.

use crate::common::{RpcSystem, SystemResult};
use crate::pool::{self, Policy, Shape};
use rpcstack::nic::{NicModel, Steering, Transfer};
use rpcstack::stack::StackModel;
use simcore::faults::FaultPlan;
use simcore::time::SimDuration;
use workload::trace::Trace;

/// Configuration of a d-FCFS system.
#[derive(Debug, Clone)]
pub struct DFcfsConfig {
    /// Number of worker cores (= receive queues).
    pub cores: usize,
    /// RPC stack processed on each core.
    pub stack: StackModel,
    /// NIC→core transfer mechanism.
    pub transfer: Transfer,
    /// On-NIC processing.
    pub nic: NicModel,
    /// Steering policy.
    pub steering: Steering,
    /// Fixed per-request scheduling overhead on the core (d-FCFS's private
    /// queue poll is cheap; default 10 ns).
    pub sched_overhead: SimDuration,
    /// RNG seed for steering decisions.
    pub seed: u64,
    /// Injected faults. d-FCFS has no recovery path: a dead core's queued
    /// and future-steered requests are simply lost (the RSS hash keeps
    /// pointing at the dead queue), which is the non-graceful comparison
    /// point for the fault sweep. The default empty plan reproduces healthy
    /// runs byte-for-byte.
    pub faults: FaultPlan,
}

impl DFcfsConfig {
    /// IX-like defaults: TCP-era stack on a PCIe RSS NIC.
    pub fn ix(cores: usize) -> Self {
        DFcfsConfig {
            cores,
            stack: StackModel::erpc(),
            transfer: Transfer::pcie(),
            nic: NicModel::default(),
            steering: Steering::rss(),
            sched_overhead: SimDuration::from_ns(10),
            seed: 0,
            faults: FaultPlan::default(),
        }
    }

    /// Commodity RSS NIC with an eRPC-class user-space stack.
    pub fn rss(cores: usize) -> Self {
        Self::ix(cores)
    }
}

/// The d-FCFS system. See [module docs](self).
#[derive(Debug, Clone)]
pub struct DFcfs {
    cfg: DFcfsConfig,
}

impl DFcfs {
    /// Creates the system; `run` rejects faults on cores it lacks.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cfg: DFcfsConfig) -> Self {
        assert!(cfg.cores > 0, "need at least one core");
        DFcfs { cfg }
    }
}

/// RSS to a core's own queue, served FCFS run-to-completion; no balancing.
impl Policy for DFcfsConfig {
    fn shape(&self) -> Shape {
        Shape {
            transfer: Some(self.transfer),
            stack: Some(self.stack),
            overhead: self.sched_overhead,
            steering: Some((self.steering.clone(), self.seed)),
            faults: self.faults.clone(),
            ..Shape::new(self.cores, self.nic.mac_delay)
        }
    }
}

impl RpcSystem for DFcfs {
    fn name(&self) -> String {
        format!("d-FCFS/{}({})", self.cfg.steering.label(), self.cfg.cores)
    }

    fn run(&mut self, trace: &Trace) -> SystemResult {
        pool::run(self.cfg.clone(), trace).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimTime;
    use workload::arrival::PoissonProcess;
    use workload::dist::ServiceDistribution;
    use workload::trace::TraceBuilder;

    fn trace(load: f64, cores: usize, n: usize) -> Trace {
        let dist = ServiceDistribution::Fixed(SimDuration::from_us(1));
        let rate = PoissonProcess::rate_for_load(load, cores, dist.mean());
        TraceBuilder::new(PoissonProcess::new(rate), dist)
            .requests(n)
            .connections(256)
            .seed(42)
            .build()
    }

    #[test]
    fn completes_every_request() {
        let t = trace(0.5, 8, 5000);
        let mut sys = DFcfs::new(DFcfsConfig::rss(8));
        let r = sys.run(&t);
        assert_eq!(r.completions.len(), 5000);
    }

    #[test]
    fn latency_at_least_floor() {
        // Even an idle system pays NIC + PCIe + stack + service.
        let t = trace(0.05, 8, 500);
        let mut sys = DFcfs::new(DFcfsConfig::rss(8));
        let r = sys.run(&t);
        let floor = SimDuration::from_ns(30) // mac
            + Transfer::pcie().latency(300)
            + StackModel::erpc().rx(300)
            + SimDuration::from_us(1) // service
            + StackModel::erpc().tx(64);
        assert!(
            r.hist.min() >= floor,
            "min={} floor={}",
            r.hist.min(),
            floor
        );
    }

    #[test]
    fn higher_load_higher_tail() {
        let mut sys = DFcfs::new(DFcfsConfig::rss(8));
        let lo = sys.run(&trace(0.3, 8, 20_000)).p99();
        let hi = sys.run(&trace(0.9, 8, 20_000)).p99();
        assert!(hi > lo, "p99 lo={lo} hi={hi}");
    }

    #[test]
    fn deterministic_runs() {
        let t = trace(0.7, 4, 2000);
        let a = DFcfs::new(DFcfsConfig::rss(4)).run(&t);
        let b = DFcfs::new(DFcfsConfig::rss(4)).run(&t);
        assert_eq!(a.p99(), b.p99());
        assert_eq!(a.completions.len(), b.completions.len());
        assert_eq!(a.end_time, b.end_time);
    }

    #[test]
    fn rss_imbalance_hurts_vs_round_robin() {
        // With few connections, RSS hashing concentrates load; per-packet
        // round-robin balances perfectly. Tail must be worse for RSS.
        let dist = ServiceDistribution::Fixed(SimDuration::from_us(1));
        let rate = PoissonProcess::rate_for_load(0.7, 8, dist.mean());
        let t = TraceBuilder::new(PoissonProcess::new(rate), dist)
            .requests(30_000)
            .connections(6) // fewer connections than cores
            .seed(1)
            .build();
        let mut rss = DFcfs::new(DFcfsConfig::rss(8));
        let mut rr = DFcfs::new(DFcfsConfig {
            steering: Steering::round_robin(),
            ..DFcfsConfig::rss(8)
        });
        let p99_rss = rss.run(&t).p99();
        let p99_rr = rr.run(&t).p99();
        assert!(
            p99_rss > p99_rr,
            "RSS p99 {p99_rss} should exceed RR p99 {p99_rr}"
        );
    }

    #[test]
    fn single_core_fcfs_order() {
        let t = trace(0.5, 1, 100);
        let mut sys = DFcfs::new(DFcfsConfig::rss(1));
        let r = sys.run(&t);
        // FCFS on one queue: completions in arrival (id) order.
        for pair in r.completions.windows(2) {
            assert!(pair[0].id < pair[1].id);
        }
    }

    #[test]
    fn inert_fault_plan_is_identical_to_healthy() {
        // A *non-empty but inert* plan (straggler window past the trace
        // end) runs through the same engine as a healthy run, so every
        // completion field and the end instant must match byte for byte.
        use simcore::faults::Straggler;
        let t = trace(0.7, 8, 10_000);
        let healthy = DFcfs::new(DFcfsConfig::rss(8)).run(&t);
        let mut cfg = DFcfsConfig::rss(8);
        cfg.faults.stragglers.push(Straggler {
            first_core: 0,
            last_core: 7,
            from: SimTime::from_us(1_000_000),
            until: SimTime::from_us(1_000_001),
            slowdown: 3.0,
        });
        let inert = DFcfs::new(cfg).run(&t);
        assert_eq!(healthy.completions, inert.completions);
        assert_eq!(healthy.end_time, inert.end_time);
        assert_eq!(healthy.p99(), inert.p99());
    }

    #[test]
    fn dead_core_loses_its_steered_requests() {
        use simcore::faults::WorkerFailure;
        let t = trace(0.5, 8, 20_000);
        let mut cfg = DFcfsConfig::rss(8);
        cfg.faults.worker_failures.push(WorkerFailure {
            core: 3,
            at: SimTime::from_us(200),
        });
        let a = DFcfs::new(cfg.clone()).run(&t);
        let b = DFcfs::new(cfg).run(&t);
        // No rebalancing: RSS keeps hashing connections onto the dead
        // queue, so dFCFS drops everything steered there after the failure.
        assert!(
            a.completions.len() < t.len(),
            "dFCFS cannot resteer a dead core's traffic"
        );
        assert!(a.completions.len() > t.len() / 2);
        assert_eq!(a.completions, b.completions); // fault runs stay deterministic
    }

    #[test]
    fn straggler_slows_but_loses_nothing() {
        use simcore::faults::Straggler;
        let t = trace(0.5, 8, 20_000);
        let healthy = DFcfs::new(DFcfsConfig::rss(8)).run(&t);
        let mut cfg = DFcfsConfig::rss(8);
        cfg.faults.stragglers.push(Straggler {
            first_core: 0,
            last_core: 7,
            from: SimTime::from_us(100),
            until: SimTime::from_us(600),
            slowdown: 3.0,
        });
        let r = DFcfs::new(cfg).run(&t);
        assert_eq!(r.completions.len(), t.len());
        assert!(
            r.p99() > healthy.p99(),
            "slowed {} vs healthy {}",
            r.p99(),
            healthy.p99()
        );
    }

    #[test]
    #[should_panic(expected = "straggler targets cores 6..=8 of 8")]
    fn rejects_a_straggler_on_a_phantom_core() {
        use simcore::faults::Straggler;
        let mut cfg = DFcfsConfig::rss(8);
        cfg.faults.stragglers.push(Straggler {
            first_core: 6,
            last_core: 8,
            from: SimTime::from_us(100),
            until: SimTime::from_us(600),
            slowdown: 3.0,
        });
        DFcfs::new(cfg).run(&trace(0.5, 8, 100));
    }

    #[test]
    #[should_panic(expected = "worker failure targets core 8 of 8")]
    fn rejects_a_death_on_a_phantom_core() {
        use simcore::faults::WorkerFailure;
        let mut cfg = DFcfsConfig::rss(8);
        cfg.faults.worker_failures.push(WorkerFailure {
            core: 8,
            at: SimTime::from_us(200),
        });
        DFcfs::new(cfg).run(&trace(0.5, 8, 100));
    }
}
