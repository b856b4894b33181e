//! Configuration of an Altocumulus deployment.

use crate::hw::interface::Interface;
use crate::runtime::predictor::ThresholdPolicy;
use queueing::threshold::ThresholdModel;
use rpcstack::nic::Steering;
use rpcstack::stack::StackModel;
use simcore::faults::FaultPlan;
use simcore::time::SimDuration;

/// How the NIC attaches to the CPU (paper §VII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attachment {
    /// Hardware-terminated integrated NIC (ACint): NIC→manager transfers at
    /// cache-coherence speed, intra-group dispatch in hardware.
    Integrated,
    /// Commodity PCIe NIC with RSS (ACrss): NIC→manager over PCIe, manager
    /// software dispatches at ~70 cycles/message.
    RssPcie,
}

impl Attachment {
    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Attachment::Integrated => "AC_int",
            Attachment::RssPcie => "AC_rss",
        }
    }
}

/// Which imbalance-pattern roles a manager acts on (ablation knob; the
/// paper's design uses all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternPolicy {
    /// Hill + Valley + Pairing (the paper's classifier).
    All,
    /// Only the threshold trigger — no pattern-driven migrations.
    ThresholdOnly,
}

/// How the simulator executes the manager control plane (UPDATE delivery
/// and idle periods). Both modes model *identical* physics — same message
/// latencies, same per-period estimator updates — and produce bit-identical
/// results; they differ only in how many simulator events they cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlPlane {
    /// Manager-plane event elision (the default): UPDATEs are delivered
    /// through per-group mailboxes drained lazily at the destination's next
    /// tick, and fully quiescent groups fast-forward across idle periods
    /// instead of re-arming a timer event every `period`.
    #[default]
    Elided,
    /// The legacy event-based path: one `Msg` event per UPDATE per peer and
    /// one `Tick` event per group per period, unconditionally. Kept as the
    /// differential-testing oracle (like `BinaryHeapQueue` for the calendar
    /// queue).
    EventDriven,
}

/// Graceful-degradation policy: how the system reacts to the faults a
/// [`FaultPlan`] injects. The default turns every optional reaction off so
/// that healthy runs keep today's byte-identical behavior; fault studies
/// opt into [`Resilience::hardened`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resilience {
    /// After a NACK (or a migrate timeout), refuse to plan migrations to
    /// that destination for this long. `None` = no backoff: NACKed
    /// descriptors simply requeue, exactly the pre-fault-layer behavior.
    pub nack_backoff: Option<SimDuration>,
    /// Declare a staged MIGRATE lost if no ACK/NACK arrives within this
    /// window, then resteer its descriptors back into the local NetRX.
    /// `None` disables the timer (but manager failures in the plan imply a
    /// 50 µs default so migrations to dead managers cannot hang forever).
    pub migrate_timeout: Option<SimDuration>,
    /// Delay between a manager's death and a neighbor group assuming its
    /// NetRX queue (failure-detection plus handoff cost).
    pub takeover_delay: SimDuration,
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience {
            nack_backoff: None,
            migrate_timeout: None,
            takeover_delay: SimDuration::from_us(1),
        }
    }
}

impl Resilience {
    /// The fault-study policy: 2 µs NACK backoff, 50 µs migrate timeout,
    /// 1 µs takeover delay.
    pub fn hardened() -> Self {
        Resilience {
            nack_backoff: Some(SimDuration::from_us(2)),
            migrate_timeout: Some(SimDuration::from_us(50)),
            takeover_delay: SimDuration::from_us(1),
        }
    }
}

/// Full configuration of an Altocumulus system.
#[derive(Debug, Clone)]
pub struct AcConfig {
    /// Number of groups (= manager cores = NetRX queues).
    pub groups: usize,
    /// Cores per group including the manager (paper default 16: one manager
    /// + 15 workers).
    pub group_size: usize,
    /// Migration/runtime period `P` (paper sweeps 10–1000 ns; default 200).
    pub period: SimDuration,
    /// Max descriptors batched per migration decision (paper sweeps 8–40;
    /// default 16).
    pub bulk: usize,
    /// Concurrent MIGRATE flows per decision (paper: n/4, n/2 or n; default
    /// 8 for 16 managers).
    pub concurrency: usize,
    /// Threshold selection policy.
    pub threshold: ThresholdPolicy,
    /// Software–hardware interface (custom ISA vs MSR).
    pub interface: Interface,
    /// NIC attachment.
    pub attachment: Attachment,
    /// RPC stack executed per request.
    pub stack: StackModel,
    /// Per-worker queue bound including the in-service slot. 1 = strict
    /// local c-FCFS (queueing stays at the manager, where it can migrate);
    /// 2 = JBSQ(2)-style prefetch that hides dispatch latency.
    pub local_bound: usize,
    /// Descriptors moved per serialized manager dispatch operation (ACrss
    /// only; one 70-cycle op can carry a cache line of descriptors).
    pub dispatch_batch: usize,
    /// Offline-profiled mean service time (µ input of Fig. 5).
    pub mean_service: SimDuration,
    /// Master toggle for the proactive runtime (off = plain grouped d-FCFS,
    /// the "before the runtime has started" baseline of Fig. 14).
    pub migration_enabled: bool,
    /// The Algorithm-1 line-8 guard that forbids migrations into
    /// equally-long queues (ablation: disabling it allows harmful moves).
    pub guard_enabled: bool,
    /// Run the predictor every period but *do not* migrate: requests beyond
    /// the threshold are only recorded in `MigrationStats::predicted`.
    /// Used to measure prediction accuracy on the unperturbed trajectory
    /// (the paper's accuracy metric, §IV).
    pub predict_only: bool,
    /// Which pattern roles trigger migrations (ablation).
    pub patterns: PatternPolicy,
    /// Optional multi-application isolation: groups partitioned among
    /// tenants, steering and migration confined within each tenant's
    /// partition (the paper's future-work study; see [`crate::tenancy`]).
    pub tenancy: Option<crate::tenancy::Tenancy>,
    /// NIC steering across NetRX queues.
    pub steering: Steering,
    /// Simulator execution strategy for the manager control plane.
    pub control_plane: ControlPlane,
    /// Injected faults. The default (empty) plan reproduces healthy runs
    /// byte-for-byte; see [`simcore::faults`].
    pub faults: FaultPlan,
    /// Degradation policy applied when faults strike.
    pub resilience: Resilience,
    /// RNG seed.
    pub seed: u64,
}

impl AcConfig {
    /// ACint defaults: `groups` groups of `group_size` cores on an
    /// integrated NIC, paper-default migration parameters
    /// (P=200 ns, Bulk=16, Concurrency=min(8, groups)).
    pub fn ac_int(groups: usize, group_size: usize, mean_service: SimDuration) -> Self {
        AcConfig {
            groups,
            group_size,
            period: SimDuration::from_ns(200),
            bulk: 16,
            concurrency: 8.min(groups.max(1)),
            threshold: ThresholdPolicy::Model(ThresholdModel::paper_fixed()),
            interface: Interface::Isa,
            attachment: Attachment::Integrated,
            stack: StackModel::nano_rpc(),
            local_bound: 1,
            dispatch_batch: 4,
            mean_service,
            migration_enabled: true,
            guard_enabled: true,
            predict_only: false,
            patterns: PatternPolicy::All,
            tenancy: None,
            steering: Steering::rss(),
            control_plane: ControlPlane::Elided,
            faults: FaultPlan::default(),
            resilience: Resilience::default(),
            seed: 0,
        }
    }

    /// ACrss defaults: commodity PCIe RSS NIC, eRPC-class stack, manager
    /// software dispatch.
    pub fn ac_rss(groups: usize, group_size: usize, mean_service: SimDuration) -> Self {
        AcConfig {
            attachment: Attachment::RssPcie,
            stack: StackModel::erpc(),
            ..Self::ac_int(groups, group_size, mean_service)
        }
    }

    /// Number of worker cores per group.
    pub fn workers_per_group(&self) -> usize {
        self.group_size - 1
    }

    /// Content fingerprint of the whole configuration (FNV-1a 64 over the
    /// canonical `Debug` rendering, which covers every field including the
    /// fault plan and seed). Recorded into `TRACE/1.0` artifacts so a
    /// replay against a drifted configuration fails at provenance — before
    /// any event comparison could mislead.
    pub fn fingerprint(&self) -> u64 {
        simcore::trace::fnv1a64(format!("{self:?}").as_bytes())
    }

    /// Total cores (managers + workers).
    pub fn total_cores(&self) -> usize {
        self.groups * self.group_size
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on a structurally impossible configuration.
    pub fn validate(&self) {
        assert!(self.groups >= 1, "need at least one group");
        assert!(
            self.group_size >= 2,
            "a group is one manager plus >=1 worker"
        );
        assert!(self.bulk >= 1 && self.concurrency >= 1);
        assert!(
            self.concurrency <= self.bulk,
            "concurrency > bulk would send empty MIGRATE messages"
        );
        assert!(self.local_bound >= 1, "workers need at least one slot");
        assert!(self.dispatch_batch >= 1);
        assert!(!self.period.is_zero(), "period must be positive");
        assert!(
            !self.mean_service.is_zero(),
            "mean service must be positive"
        );
        if let Some(t) = &self.tenancy {
            assert_eq!(
                t.groups(),
                self.groups,
                "tenancy must assign every group exactly once"
            );
        }
        self.faults.validate();
        for f in &self.faults.worker_failures {
            assert!(
                f.core < self.total_cores(),
                "worker failure targets core {} of {}",
                f.core,
                self.total_cores()
            );
            assert!(
                f.core % self.group_size != 0,
                "core {} is a manager tile; use manager_failures",
                f.core
            );
        }
        for f in &self.faults.manager_failures {
            assert!(
                f.group < self.groups,
                "manager failure targets group {} of {}",
                f.group,
                self.groups
            );
            assert!(
                self.groups > 1,
                "manager failure needs a neighbor group for takeover"
            );
        }
        for s in &self.faults.fifo_stalls {
            assert!(
                s.group < self.groups,
                "fifo stall targets group {} of {}",
                s.group,
                self.groups
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        AcConfig::ac_int(16, 16, SimDuration::from_ns(850)).validate();
        AcConfig::ac_rss(4, 16, SimDuration::from_ns(850)).validate();
    }

    #[test]
    fn derived_counts() {
        let c = AcConfig::ac_int(16, 16, SimDuration::from_ns(850));
        assert_eq!(c.workers_per_group(), 15);
        assert_eq!(c.total_cores(), 256);
        assert_eq!(c.attachment.label(), "AC_int");
    }

    #[test]
    fn rss_preset_differs() {
        let c = AcConfig::ac_rss(4, 16, SimDuration::from_ns(850));
        assert_eq!(c.attachment, Attachment::RssPcie);
        assert_eq!(c.attachment.label(), "AC_rss");
    }

    #[test]
    #[should_panic(expected = "one manager plus")]
    fn rejects_tiny_groups() {
        AcConfig::ac_int(4, 1, SimDuration::from_ns(850)).validate();
    }

    #[test]
    #[should_panic(expected = "empty MIGRATE")]
    fn rejects_concurrency_over_bulk() {
        let mut c = AcConfig::ac_int(16, 16, SimDuration::from_ns(850));
        c.concurrency = 32;
        c.validate();
    }
}
