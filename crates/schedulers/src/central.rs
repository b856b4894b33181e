//! Centralized dispatcher with preemption (Shinjuku-style c-FCFS).
//!
//! Shinjuku \[26\] dedicates one core to networking + dispatch and preempts
//! long requests every few microseconds, eliminating head-of-line blocking.
//! Its published bottlenecks (paper §II-D, Table I) drive this model:
//!
//! - the dispatcher core serializes dispatches (~5 M requests/s, i.e. about
//!   200 ns per dispatch through the cache-coherence protocol);
//! - preemption costs a context switch / IPI, so the quantum is ~5 µs;
//! - one core is lost to dispatching.

use crate::common::{RpcSystem, SystemResult};
use crate::pool::{self, Handoff, Policy, Shape};
use rpcstack::nic::{NicModel, Transfer};
use rpcstack::stack::StackModel;
use simcore::time::SimDuration;
use workload::trace::Trace;

/// Configuration of the centralized-dispatch system.
#[derive(Debug, Clone)]
pub struct CentralConfig {
    /// Total cores; one is dedicated to the dispatcher, the rest execute
    /// handlers.
    pub cores: usize,
    /// RPC stack cost charged per request.
    pub stack: StackModel,
    /// NIC→dispatcher transfer.
    pub transfer: Transfer,
    /// On-NIC processing.
    pub nic: NicModel,
    /// Serialized per-dispatch cost on the dispatcher core (default 200 ns —
    /// Shinjuku's ~5 MRPS ceiling).
    pub dispatch_cost: SimDuration,
    /// Preemption quantum: a handler running longer is descheduled and
    /// requeued (default 5 µs). `None` disables preemption.
    pub quantum: Option<SimDuration>,
    /// Overhead paid by the worker on each preemption (IPI + context switch).
    pub preempt_overhead: SimDuration,
}

impl CentralConfig {
    /// Shinjuku defaults.
    pub fn shinjuku(cores: usize) -> Self {
        CentralConfig {
            cores,
            stack: StackModel::erpc(),
            transfer: Transfer::pcie(),
            nic: NicModel::default(),
            dispatch_cost: SimDuration::from_ns(200),
            quantum: Some(SimDuration::from_us(5)),
            preempt_overhead: SimDuration::from_ns(300),
        }
    }
}

/// The centralized-dispatcher system. See [module docs](self).
#[derive(Debug, Clone)]
pub struct CentralDispatch {
    cfg: CentralConfig,
}

impl CentralDispatch {
    /// Creates the system.
    ///
    /// # Panics
    ///
    /// Panics if `cores < 2` (dispatcher + at least one worker).
    pub fn new(cfg: CentralConfig) -> Self {
        assert!(cfg.cores >= 2, "need a dispatcher plus at least one worker");
        CentralDispatch { cfg }
    }

    /// Number of handler-executing workers.
    pub fn workers(&self) -> usize {
        self.cfg.cores - 1
    }
}

/// One central queue; a serial dispatcher hands each head to the first idle
/// worker and sees a preempted worker busy through its context switch.
impl Policy for CentralConfig {
    fn shape(&self) -> Shape {
        let workers = self.cores - 1;
        Shape {
            first_core: 1, // core 0 is the dispatcher
            transfer: Some(self.transfer),
            stack: Some(self.stack),
            domain: workers,
            handoff: Handoff::Dispatcher(self.dispatch_cost),
            quantum: self.quantum,
            preempt_overhead: self.preempt_overhead,
            ..Shape::new(workers, self.nic.mac_delay)
        }
    }
}

impl RpcSystem for CentralDispatch {
    fn name(&self) -> String {
        format!("Shinjuku({})", self.cfg.cores)
    }

    fn run(&mut self, trace: &Trace) -> SystemResult {
        pool::run(self.cfg.clone(), trace).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stealing::{StealingConfig, WorkStealing};
    use workload::arrival::PoissonProcess;
    use workload::dist::ServiceDistribution;
    use workload::trace::TraceBuilder;

    fn trace(dist: ServiceDistribution, load: f64, cores: usize, n: usize) -> Trace {
        let rate = PoissonProcess::rate_for_load(load, cores, dist.mean());
        TraceBuilder::new(PoissonProcess::new(rate), dist)
            .requests(n)
            .connections(64)
            .seed(21)
            .build()
    }

    #[test]
    fn completes_all() {
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.5,
            8,
            5000,
        );
        let r = CentralDispatch::new(CentralConfig::shinjuku(8)).run(&t);
        assert_eq!(r.completions.len(), 5000);
    }

    #[test]
    fn preemption_caps_short_request_wait() {
        // Bimodal: shorts behind a long must not wait the full 500us. At
        // load 0.75 idle cores are scarce, so ZygOS's steal-at-idle can no
        // longer rescue blocked shorts, while preemption still does.
        let t = trace(ServiceDistribution::bimodal_paper(), 0.75, 16, 60_000);
        let shin = CentralDispatch::new(CentralConfig::shinjuku(16)).run(&t);
        let zygos = WorkStealing::new(StealingConfig::zygos(16)).run(&t);
        // The 0.5% long requests exceed 300us by construction, so compare
        // how many *additional* requests (shorts stuck behind longs) blow
        // the 300us SLO: preemption should save nearly all of them.
        let slo = SimDuration::from_us(300);
        let s = shin.violation_ratio(slo);
        let z = zygos.violation_ratio(slo);
        assert!(s < z, "Shinjuku violations {s} should be below ZygOS {z}");
        // Shinjuku leaves mostly the longs themselves violating (~0.5%).
        assert!(s < 0.03, "Shinjuku violation ratio {s}");
    }

    #[test]
    fn dispatcher_throughput_bounded() {
        // Offered rate above the dispatcher's 5 MRPS: completions lag far
        // behind and latency explodes. Use tiny service so the workers are
        // never the constraint.
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(50));
        let rate = 8e6; // 8 MRPS > 5 MRPS dispatcher cap
        let t = TraceBuilder::new(PoissonProcess::new(rate), dist)
            .requests(40_000)
            .seed(3)
            .build();
        let r = CentralDispatch::new(CentralConfig::shinjuku(16)).run(&t);
        // Achieved throughput is pinned near the dispatcher cap.
        let achieved = r.throughput_rps();
        assert!(
            achieved < 5.5e6,
            "achieved {achieved} should be capped by the dispatcher"
        );
        assert!(achieved > 4.0e6);
    }

    #[test]
    fn preemption_disabled_blocks() {
        let t = trace(ServiceDistribution::bimodal_paper(), 0.4, 8, 20_000);
        let with = CentralDispatch::new(CentralConfig::shinjuku(8)).run(&t);
        let without = CentralDispatch::new(CentralConfig {
            quantum: None,
            ..CentralConfig::shinjuku(8)
        })
        .run(&t);
        let slo = SimDuration::from_us(300);
        assert!(with.violation_ratio(slo) <= without.violation_ratio(slo));
    }

    #[test]
    fn deterministic() {
        let t = trace(ServiceDistribution::bimodal_paper(), 0.5, 8, 5000);
        let a = CentralDispatch::new(CentralConfig::shinjuku(8)).run(&t);
        let b = CentralDispatch::new(CentralConfig::shinjuku(8)).run(&t);
        assert_eq!(a.p99(), b.p99());
    }

    #[test]
    #[should_panic(expected = "dispatcher plus at least one worker")]
    fn rejects_single_core() {
        CentralDispatch::new(CentralConfig::shinjuku(1));
    }

    #[test]
    fn workers_excludes_dispatcher() {
        assert_eq!(
            CentralDispatch::new(CentralConfig::shinjuku(16)).workers(),
            15
        );
    }
}
