//! NIC-driven c-FCFS with Join-Bounded-Shortest-Queue (JBSQ) hardware
//! schedulers: RPCValet, Nebula and nanoPU (paper §II-D, §VII-A).
//!
//! The NIC holds one central hardware queue and pushes the head to any core
//! whose local queue has fewer than `bound` entries. The three systems differ
//! in the NIC→core transfer mechanism and in whether cores can preempt:
//!
//! | system   | bound | transfer                    | preemption |
//! |----------|-------|-----------------------------|------------|
//! | RPCValet | 1     | cache-coherent (shared LLC) | no         |
//! | Nebula   | 2     | cache-coherent (L1-speed)   | no         |
//! | nanoPU   | 2     | register file               | piggybacked |
//!
//! Nebula's lack of long-request awareness — JBSQ decides only on queue
//! *counts* — is exactly what produces its 15.8× tail blow-up on dispersed
//! service times (Fig. 10), which this model reproduces.

use crate::common::{RpcSystem, SystemResult};
use crate::pool::{self, Handoff, Policy, Shape};
use rpcstack::nic::{NicModel, Steering, Transfer};
use rpcstack::stack::StackModel;
use simcore::faults::FaultPlan;
use simcore::time::SimDuration;
use workload::trace::Trace;

/// Which published system the JBSQ model instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JbsqVariant {
    /// RPCValet: NI-driven single-queue dispatch over shared caches.
    RpcValet,
    /// Nebula: JBSQ(2) with L1-speed NIC-core integration.
    Nebula,
    /// nanoPU: JBSQ(2) into the core's register file, with a piggybacked
    /// preemption mechanism that bounds head-of-line blocking.
    NanoPu,
}

impl JbsqVariant {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            JbsqVariant::RpcValet => "RPCValet",
            JbsqVariant::Nebula => "Nebula",
            JbsqVariant::NanoPu => "nanoPU",
        }
    }
}

/// Configuration of the JBSQ hardware-scheduler model.
#[derive(Debug, Clone)]
pub struct JbsqConfig {
    /// Number of worker cores (the scheduler itself is NIC hardware and
    /// consumes no core).
    pub cores: usize,
    /// Local queue bound `n` of JBSQ(n), counting the in-service request.
    pub bound: usize,
    /// Coherence-domain size: the JBSQ central queue can only span this many
    /// cores (Table I: "limited coherence domain size"). Larger systems are
    /// split into independent domains with RSS steering across them and no
    /// rebalancing between them.
    pub domain_size: usize,
    /// RPC stack cost (hardware-terminated for all three systems).
    pub stack: StackModel,
    /// NIC→core transfer mechanism.
    pub transfer: Transfer,
    /// On-NIC processing.
    pub nic: NicModel,
    /// Preemption quantum (nanoPU only).
    pub quantum: Option<SimDuration>,
    /// Per-preemption overhead.
    pub preempt_overhead: SimDuration,
    /// Injected faults. JBSQ is partially resilient by construction — the
    /// central queue just stops pushing to a dead core — but whatever the
    /// dead core already held (running, local queue, in-flight pushes) is
    /// lost. The default empty plan reproduces healthy runs byte-for-byte.
    pub faults: FaultPlan,
}

impl JbsqConfig {
    /// Instantiates the published configuration of `variant`. The
    /// cache-coherent systems (RPCValet, Nebula) pool at most 32 cores per
    /// coherence domain; nanoPU's NoC-routed register-file path spans the
    /// whole chip.
    pub fn of(variant: JbsqVariant, cores: usize) -> Self {
        let base = JbsqConfig {
            cores,
            bound: 2,
            domain_size: cores.min(32),
            stack: StackModel::nano_rpc(),
            transfer: Transfer::coherent(),
            nic: NicModel::default(),
            quantum: None,
            preempt_overhead: SimDuration::from_ns(100),
            faults: FaultPlan::default(),
        };
        match variant {
            JbsqVariant::RpcValet => JbsqConfig { bound: 1, ..base },
            JbsqVariant::Nebula => base,
            JbsqVariant::NanoPu => JbsqConfig {
                transfer: Transfer::register_file(),
                quantum: Some(SimDuration::from_us(5)),
                domain_size: cores,
                ..base
            },
        }
    }
}

/// The JBSQ NIC-scheduler system. See [module docs](self).
#[derive(Debug, Clone)]
pub struct Jbsq {
    cfg: JbsqConfig,
    variant: JbsqVariant,
}

impl Jbsq {
    /// Creates a published variant on `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(variant: JbsqVariant, cores: usize) -> Self {
        assert!(cores > 0);
        Jbsq {
            cfg: JbsqConfig::of(variant, cores),
            variant,
        }
    }

    /// A custom configuration (for ablations); `run` rejects faults on cores
    /// it lacks.
    pub fn with_config(variant: JbsqVariant, cfg: JbsqConfig) -> Self {
        assert!(cfg.cores > 0);
        assert!(cfg.bound > 0, "JBSQ bound must be positive");
        Jbsq { cfg, variant }
    }
}

/// RSS across per-domain hardware queues, each pushing its head to the
/// least-occupied core under the bound; nanoPU requeues sliced requests.
impl Policy for JbsqConfig {
    fn shape(&self) -> Shape {
        Shape {
            stack: Some(self.stack),
            steering: Some((Steering::rss(), 0)),
            domain: self.domain_size,
            bound: self.bound as u32,
            handoff: Handoff::Transfer(self.transfer),
            quantum: self.quantum,
            preempt_overhead: self.preempt_overhead,
            faults: self.faults.clone(),
            ..Shape::new(self.cores, self.nic.mac_delay)
        }
    }
}

impl RpcSystem for Jbsq {
    fn name(&self) -> String {
        format!("{}({})", self.variant.name(), self.cfg.cores)
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

    fn trace(dist: ServiceDistribution, load: f64, cores: usize, n: usize) -> Trace {
        let rate = PoissonProcess::rate_for_load(load, cores, dist.mean());
        TraceBuilder::new(PoissonProcess::new(rate), dist)
            .requests(n)
            .connections(64)
            .seed(31)
            .build()
    }

    #[test]
    fn completes_all_variants() {
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.6,
            8,
            5000,
        );
        for v in [
            JbsqVariant::RpcValet,
            JbsqVariant::Nebula,
            JbsqVariant::NanoPu,
        ] {
            let r = Jbsq::new(v, 8).run(&t);
            assert_eq!(r.completions.len(), 5000, "{}", v.name());
        }
    }

    #[test]
    fn local_queues_respect_bound() {
        // Indirect check: with fixed service and bound 2, no request should
        // ever wait behind more than (bound-1) local entries beyond the NIC
        // queue — latency under light load is tightly clustered.
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.2,
            8,
            5000,
        );
        let r = Jbsq::new(JbsqVariant::Nebula, 8).run(&t);
        // At 20% load nearly everything should finish within ~2 service times
        // + stack + transfer.
        assert!(r.p99() < SimDuration::from_us(3), "p99={}", r.p99());
    }

    #[test]
    fn nebula_blows_up_on_bimodal_tail() {
        // The paper's headline observation: JBSQ without preemption suffers
        // on dispersed service times, nanoPU's preemption fixes it.
        let t = trace(ServiceDistribution::bimodal_paper(), 0.85, 16, 80_000);
        let nebula = Jbsq::new(JbsqVariant::Nebula, 16).run(&t);
        let nanopu = Jbsq::new(JbsqVariant::NanoPu, 16).run(&t);
        // 0.5% longs violate a 300us SLO by construction; Nebula additionally
        // strands shorts behind them while nanoPU's preemption rescues them,
        // so Nebula's violation ratio and p99 are both distinctly worse.
        let slo = SimDuration::from_us(300);
        let nb = nebula.violation_ratio(slo);
        let np = nanopu.violation_ratio(slo);
        assert!(
            nb > np * 1.5,
            "Nebula violations {nb} should far exceed nanoPU {np}"
        );
        assert!(
            np < 0.03,
            "nanoPU violations {np} should be near the 0.5% floor"
        );
        assert!(
            nebula.p99() > nanopu.p99(),
            "Nebula p99 {} should exceed nanoPU p99 {}",
            nebula.p99(),
            nanopu.p99()
        );
    }

    #[test]
    fn nebula_fine_on_uniform_service() {
        // Without dispersion, JBSQ(2) is near-optimal.
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.9,
            16,
            50_000,
        );
        let r = Jbsq::new(JbsqVariant::Nebula, 16).run(&t);
        assert!(r.p99() < SimDuration::from_us(20), "p99={}", r.p99());
    }

    #[test]
    fn rpcvalet_bound_one_idles_more() {
        // JBSQ(1) cannot hide transfer latency; JBSQ(2) prefetches one
        // request, so at high load Nebula sustains lower latency.
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_ns(500)),
            0.9,
            16,
            50_000,
        );
        let valet = Jbsq::new(JbsqVariant::RpcValet, 16).run(&t);
        let nebula = Jbsq::new(JbsqVariant::Nebula, 16).run(&t);
        assert!(
            nebula.p99() <= valet.p99(),
            "Nebula {} should not lose to RPCValet {}",
            nebula.p99(),
            valet.p99()
        );
    }

    #[test]
    fn deterministic() {
        let t = trace(ServiceDistribution::bimodal_paper(), 0.5, 8, 5000);
        let a = Jbsq::new(JbsqVariant::NanoPu, 8).run(&t);
        let b = Jbsq::new(JbsqVariant::NanoPu, 8).run(&t);
        assert_eq!(a.p99(), b.p99());
    }

    #[test]
    fn variant_names() {
        assert_eq!(Jbsq::new(JbsqVariant::Nebula, 4).name(), "Nebula(4)");
        assert_eq!(JbsqVariant::NanoPu.name(), "nanoPU");
    }

    #[test]
    fn routes_around_a_dead_core() {
        use simcore::faults::WorkerFailure;
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.6,
            8,
            20_000,
        );
        let mut cfg = JbsqConfig::of(JbsqVariant::Nebula, 8);
        cfg.faults.worker_failures.push(WorkerFailure {
            core: 3,
            at: SimTime::from_us(200),
        });
        let a = Jbsq::with_config(JbsqVariant::Nebula, cfg.clone()).run(&t);
        let b = Jbsq::with_config(JbsqVariant::Nebula, cfg).run(&t);
        // The central queue simply stops feeding the dead core, so at most
        // its held work (bound + in-flight) is lost — unlike dFCFS, which
        // keeps steering traffic at the corpse.
        let lost = t.len() - a.completions.len();
        assert!(
            lost <= 8,
            "JBSQ loses only the dead core's held work: {lost}"
        );
        assert_eq!(a.completions, b.completions); // fault runs stay deterministic
    }

    #[test]
    fn straggler_inflates_tail_but_completes() {
        use simcore::faults::Straggler;
        let t = trace(
            ServiceDistribution::Fixed(SimDuration::from_us(1)),
            0.6,
            8,
            20_000,
        );
        let healthy = Jbsq::new(JbsqVariant::Nebula, 8).run(&t);
        let mut cfg = JbsqConfig::of(JbsqVariant::Nebula, 8);
        cfg.faults.stragglers.push(Straggler {
            first_core: 0,
            last_core: 7,
            from: SimTime::from_us(100),
            until: SimTime::from_us(600),
            slowdown: 3.0,
        });
        let r = Jbsq::with_config(JbsqVariant::Nebula, cfg).run(&t);
        assert_eq!(r.completions.len(), t.len());
        assert!(
            r.p99() > healthy.p99(),
            "slowed {} vs healthy {}",
            r.p99(),
            healthy.p99()
        );
    }

    #[test]
    #[should_panic(expected = "straggler targets cores 8..=9 of 8")]
    fn rejects_a_straggler_on_a_phantom_core() {
        use simcore::faults::Straggler;
        let mut cfg = JbsqConfig::of(JbsqVariant::Nebula, 8);
        cfg.faults.stragglers.push(Straggler {
            first_core: 8,
            last_core: 9,
            from: SimTime::from_us(100),
            until: SimTime::from_us(600),
            slowdown: 3.0,
        });
        let t = trace(ServiceDistribution::bimodal_paper(), 0.5, 8, 100);
        Jbsq::with_config(JbsqVariant::Nebula, cfg).run(&t);
    }

    #[test]
    #[should_panic(expected = "worker failure targets core 9 of 8")]
    fn rejects_a_death_on_a_phantom_core() {
        use simcore::faults::WorkerFailure;
        let mut cfg = JbsqConfig::of(JbsqVariant::Nebula, 8);
        cfg.faults.worker_failures.push(WorkerFailure {
            core: 9,
            at: SimTime::from_us(200),
        });
        let t = trace(ServiceDistribution::bimodal_paper(), 0.5, 8, 100);
        Jbsq::with_config(JbsqVariant::Nebula, cfg).run(&t);
    }
}
