//! Deterministic fault injection plans.
//!
//! A [`FaultPlan`] is a declarative, seeded description of everything that
//! goes wrong during a run: worker straggler intervals (service-time
//! inflation), worker/manager core failures at a fixed virtual time, NoC
//! message drop/delay, and migration-FIFO stall storms. The plan is pure
//! data — the simulated system consults it at well-defined points and pushes
//! any resulting fault events itself, so replaying the same plan against the
//! same workload is bit-for-bit reproducible.
//!
//! Two invariants make the plan safe to thread through every system:
//!
//! 1. **Empty plan ⇒ byte-identical runs.** [`FaultPlan::default`] injects
//!    nothing, draws nothing, and takes no branches the healthy simulation
//!    would not take, so a run with the default plan produces exactly the
//!    output of a build without the fault layer.
//! 2. **RNG-stream isolation.** The only stochastic fault component (NoC
//!    drop/delay) draws from its own stream
//!    ([`rng::streams::FAULTS`]), derived from [`FaultPlan::seed`] rather
//!    than the workload seed, so enabling faults never perturbs arrival,
//!    service, or scheduler draws.

use crate::rng::{self, stream_rng};
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// A service-time inflation interval for a contiguous range of cores.
///
/// While `from <= now < until`, any request *starting* service on a core in
/// `[first_core, last_core]` has its service time multiplied by `slowdown`.
/// Overlapping stragglers compose multiplicatively.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// First affected core (global core id, inclusive).
    pub first_core: usize,
    /// Last affected core (global core id, inclusive).
    pub last_core: usize,
    /// Interval start (inclusive).
    pub from: SimTime,
    /// Interval end (exclusive).
    pub until: SimTime,
    /// Service-time multiplier; must be `>= 1.0`.
    pub slowdown: f64,
}

/// A worker core that fails permanently at `at`.
///
/// The request in service at that instant loses all progress; how the
/// surrounding system reacts (resteer vs. strand) is the system's policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFailure {
    /// Global core id of the failing worker.
    pub core: usize,
    /// Failure instant.
    pub at: SimTime,
}

/// A manager core that fails permanently at `at`.
///
/// Only meaningful for systems with a manager plane (Altocumulus groups);
/// scheduler baselines ignore manager failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManagerFailure {
    /// Group index whose manager fails.
    pub group: usize,
    /// Failure instant.
    pub at: SimTime,
}

/// Stochastic NoC faults: UPDATE gossip drops and uniform message delays.
///
/// Drops apply only to best-effort queue-length UPDATEs (a lossy gossip
/// channel); MIGRATE/ACK/NACK ride a reliable channel and can only be
/// delayed. Decisions are drawn from the plan's isolated RNG stream via
/// [`FaultPlan::noc_rng`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocFaults {
    /// Probability an UPDATE message is silently dropped.
    pub drop_prob: f64,
    /// Probability any message is delayed by `delay`.
    pub delay_prob: f64,
    /// Extra latency applied to delayed messages.
    pub delay: SimDuration,
}

/// A migration receive-FIFO stall storm for one group.
///
/// While `from <= now < until`, the group's receive FIFO refuses all
/// incoming MIGRATE batches, so senders see NACKs as if the FIFO were full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoStall {
    /// Group whose receive FIFO stalls.
    pub group: usize,
    /// Stall start (inclusive).
    pub from: SimTime,
    /// Stall end (exclusive).
    pub until: SimTime,
}

/// A complete, deterministic fault schedule for one run.
///
/// # Examples
///
/// ```
/// use simcore::faults::{FaultPlan, Straggler};
/// use simcore::time::{SimDuration, SimTime};
///
/// let mut plan = FaultPlan::default();
/// assert!(plan.is_empty());
/// plan.stragglers.push(Straggler {
///     first_core: 4,
///     last_core: 7,
///     from: SimTime::from_us(10),
///     until: SimTime::from_us(50),
///     slowdown: 4.0,
/// });
/// assert!(!plan.is_empty());
/// let d = SimDuration::from_ns(800);
/// assert_eq!(plan.inflate(5, SimTime::from_us(20), d), SimDuration::from_ns(3200));
/// assert_eq!(plan.inflate(5, SimTime::from_us(60), d), d); // interval over
/// assert_eq!(plan.inflate(0, SimTime::from_us(20), d), d); // core unaffected
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the plan's isolated RNG stream (NoC drop/delay draws).
    pub seed: u64,
    /// Straggler (service-inflation) intervals.
    pub stragglers: Vec<Straggler>,
    /// Permanent worker-core failures.
    pub worker_failures: Vec<WorkerFailure>,
    /// Permanent manager-core failures.
    pub manager_failures: Vec<ManagerFailure>,
    /// Stochastic NoC drop/delay, if any.
    pub noc: Option<NocFaults>,
    /// Migration receive-FIFO stall storms.
    pub fifo_stalls: Vec<FifoStall>,
}

impl FaultPlan {
    /// Returns `true` when the plan injects nothing at all.
    ///
    /// An empty plan is the byte-identity guarantee: systems must gate every
    /// fault-path branch, event push, and RNG draw on this being `false`.
    pub fn is_empty(&self) -> bool {
        self.stragglers.is_empty()
            && self.worker_failures.is_empty()
            && self.manager_failures.is_empty()
            && self.noc.is_none()
            && self.fifo_stalls.is_empty()
    }

    /// Validates internal consistency, panicking on malformed entries.
    ///
    /// # Panics
    ///
    /// On inverted intervals, `slowdown < 1.0`, or probabilities outside
    /// `[0, 1]`.
    pub fn validate(&self) {
        for s in &self.stragglers {
            assert!(
                s.first_core <= s.last_core,
                "straggler core range inverted: {} > {}",
                s.first_core,
                s.last_core
            );
            assert!(s.from < s.until, "straggler interval inverted");
            assert!(
                s.slowdown >= 1.0,
                "straggler slowdown {} < 1.0 would speed the core up",
                s.slowdown
            );
        }
        for st in &self.fifo_stalls {
            assert!(st.from < st.until, "fifo stall interval inverted");
        }
        if let Some(n) = &self.noc {
            assert!(
                (0.0..=1.0).contains(&n.drop_prob),
                "drop_prob {} out of [0,1]",
                n.drop_prob
            );
            assert!(
                (0.0..=1.0).contains(&n.delay_prob),
                "delay_prob {} out of [0,1]",
                n.delay_prob
            );
        }
    }

    /// [`validate`](Self::validate)s the plan, then checks that every
    /// worker failure and every straggler range targets one of the
    /// server's `cores` cores (ids `0..cores`).
    ///
    /// # Panics
    ///
    /// On any malformed entry, or on a core id at or past `cores`.
    pub fn validate_for(&self, cores: usize) {
        self.validate();
        for f in &self.worker_failures {
            assert!(
                f.core < cores,
                "worker failure targets core {} of {cores}",
                f.core
            );
        }
        for s in &self.stragglers {
            assert!(
                s.last_core < cores,
                "straggler targets cores {}..={} of {cores}",
                s.first_core,
                s.last_core
            );
        }
    }

    /// Combined service-time multiplier for `core` at instant `at`.
    ///
    /// Overlapping straggler intervals compose multiplicatively; a core with
    /// no active straggler returns exactly `1.0`.
    pub fn slowdown(&self, core: usize, at: SimTime) -> f64 {
        let mut factor = 1.0;
        for s in &self.stragglers {
            if core >= s.first_core && core <= s.last_core && at >= s.from && at < s.until {
                factor *= s.slowdown;
            }
        }
        factor
    }

    /// Inflates a service duration by the active slowdown for `core` at `at`.
    ///
    /// With no active straggler (or `slowdown == 1.0`) the input is returned
    /// unchanged — bit-for-bit, with no float round trip.
    pub fn inflate(&self, core: usize, at: SimTime, d: SimDuration) -> SimDuration {
        if self.stragglers.is_empty() {
            return d;
        }
        let f = self.slowdown(core, at);
        if f == 1.0 {
            return d;
        }
        SimDuration::from_ps((d.as_ps() as f64 * f).round() as u64)
    }

    /// Returns `true` if `core` has a scheduled failure at or before `at`.
    pub fn worker_dead(&self, core: usize, at: SimTime) -> bool {
        self.worker_failures
            .iter()
            .any(|f| f.core == core && f.at <= at)
    }

    /// Returns `true` if `group`'s receive FIFO is storm-stalled at `at`.
    pub fn recv_stalled(&self, group: usize, at: SimTime) -> bool {
        self.fifo_stalls
            .iter()
            .any(|s| s.group == group && at >= s.from && at < s.until)
    }

    /// The plan's NoC fault decider, or `None` when NoC faults are disabled.
    ///
    /// The RNG is derived from the plan seed on the dedicated
    /// [`rng::streams::FAULTS`] stream, so NoC draws never perturb workload
    /// or scheduler randomness.
    pub fn noc_rng(&self) -> Option<NocFaultRng> {
        self.noc.map(|faults| NocFaultRng {
            faults,
            rng: stream_rng(self.seed, rng::streams::FAULTS),
            draws: 0,
        })
    }

    /// Generates a deterministic stress plan of the given `intensity`.
    ///
    /// `worker_cores` lists the global core ids that execute requests in the
    /// target system (for Altocumulus, managers excluded). `intensity` in
    /// `[0, 1]` scales every fault dimension: straggler count and severity,
    /// permanent worker deaths, and NoC drop/delay probability. Faults are
    /// spread across `[horizon/8, 7*horizon/8)` so the run's warmup and
    /// drain phases stay clean. The same `(seed, worker_cores, intensity,
    /// horizon)` always yields the same plan.
    pub fn stress(seed: u64, worker_cores: &[usize], intensity: f64, horizon: SimTime) -> Self {
        assert!((0.0..=1.0).contains(&intensity), "intensity out of [0,1]");
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        if intensity == 0.0 || worker_cores.is_empty() {
            return plan;
        }
        let mut rng = stream_rng(seed, rng::streams::FAULTS ^ 0xF00D);
        let span = horizon.as_ps();
        let lo = span / 8;
        let hi = span - lo;
        let n = worker_cores.len();

        let stragglers = ((n as f64) * intensity * 0.25).round() as usize;
        for _ in 0..stragglers {
            let core = worker_cores[rng.random_range(0..n)];
            let start = lo + rng.random_range(0..(hi - lo));
            let len = (span / 8).max(1);
            plan.stragglers.push(Straggler {
                first_core: core,
                last_core: core,
                from: SimTime::from_ps(start),
                until: SimTime::from_ps(start.saturating_add(len)),
                slowdown: 2.0 + 6.0 * rng.random::<f64>(),
            });
        }

        let deaths = ((n as f64) * intensity * 0.125).round() as usize;
        let mut dead: Vec<usize> = Vec::new();
        for _ in 0..deaths {
            let core = worker_cores[rng.random_range(0..n)];
            if dead.contains(&core) {
                continue;
            }
            dead.push(core);
            plan.worker_failures.push(WorkerFailure {
                core,
                at: SimTime::from_ps(lo + rng.random_range(0..(hi - lo))),
            });
        }

        plan.noc = Some(NocFaults {
            drop_prob: 0.1 * intensity,
            delay_prob: 0.2 * intensity,
            delay: SimDuration::from_ns(500),
        });
        plan
    }
}

/// Verdict for one message offered to the faulty NoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocDecision {
    /// Deliver normally.
    Deliver,
    /// Silently drop (lossy channel only).
    Drop,
    /// Deliver after the extra delay.
    Delay(SimDuration),
}

/// Stateful NoC fault decider; one per run, created by [`FaultPlan::noc_rng`].
///
/// Draw order is part of the determinism contract: [`NocFaultRng::lossy`]
/// always makes exactly two draws (drop, then delay) and
/// [`NocFaultRng::reliable`] exactly one (delay), regardless of outcome, so
/// the decision sequence depends only on how many messages of each class
/// were sent before — never on which way earlier coins landed.
#[derive(Debug)]
pub struct NocFaultRng {
    faults: NocFaults,
    rng: StdRng,
    draws: u64,
}

impl NocFaultRng {
    /// Decision for a lossy-channel message (queue-length UPDATE gossip):
    /// may be dropped or delayed.
    pub fn lossy(&mut self) -> NocDecision {
        let drop = self.rng.random_bool(self.faults.drop_prob);
        let delay = self.rng.random_bool(self.faults.delay_prob);
        self.draws += 2;
        if drop {
            NocDecision::Drop
        } else if delay {
            NocDecision::Delay(self.faults.delay)
        } else {
            NocDecision::Deliver
        }
    }

    /// Decision for a reliable-channel message (MIGRATE/ACK/NACK): never
    /// dropped, but may be delayed.
    pub fn reliable(&mut self) -> NocDecision {
        self.draws += 1;
        if self.rng.random_bool(self.faults.delay_prob) {
            NocDecision::Delay(self.faults.delay)
        } else {
            NocDecision::Deliver
        }
    }

    /// Total decision draws made so far (`lossy` counts 2, `reliable` 1,
    /// matching the fixed per-call draw discipline documented above). Part
    /// of the record/replay contract: two runs that agree on every event
    /// must also agree on this count.
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straggler(first_core: usize, last_core: usize) -> Straggler {
        Straggler {
            first_core,
            last_core,
            from: SimTime::from_us(1),
            until: SimTime::from_us(2),
            slowdown: 2.0,
        }
    }

    #[test]
    fn validate_for_accepts_every_real_core() {
        let plan = FaultPlan {
            stragglers: vec![straggler(0, 63)],
            worker_failures: vec![WorkerFailure {
                core: 63,
                at: SimTime::from_us(1),
            }],
            ..FaultPlan::default()
        };
        plan.validate_for(64);
    }

    #[test]
    #[should_panic(expected = "straggler targets cores 60..=64 of 64")]
    fn validate_for_rejects_a_straggler_past_the_last_core() {
        let plan = FaultPlan {
            stragglers: vec![straggler(60, 64)],
            ..FaultPlan::default()
        };
        plan.validate_for(64);
    }

    #[test]
    #[should_panic(expected = "worker failure targets core 66 of 64")]
    fn validate_for_rejects_a_death_on_a_phantom_core() {
        let plan = FaultPlan {
            worker_failures: vec![WorkerFailure {
                core: 66,
                at: SimTime::from_us(1),
            }],
            ..FaultPlan::default()
        };
        plan.validate_for(64);
    }

    #[test]
    fn default_plan_is_empty_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        plan.validate();
        assert_eq!(plan.slowdown(0, SimTime::from_us(5)), 1.0);
        assert!(!plan.worker_dead(0, SimTime::MAX));
        assert!(!plan.recv_stalled(0, SimTime::MAX));
        assert!(plan.noc_rng().is_none());
    }

    #[test]
    fn overlapping_stragglers_compose_multiplicatively() {
        let plan = FaultPlan {
            stragglers: vec![
                Straggler {
                    first_core: 0,
                    last_core: 3,
                    from: SimTime::ZERO,
                    until: SimTime::from_us(100),
                    slowdown: 2.0,
                },
                Straggler {
                    first_core: 2,
                    last_core: 5,
                    from: SimTime::from_us(10),
                    until: SimTime::from_us(20),
                    slowdown: 3.0,
                },
            ],
            ..FaultPlan::default()
        };
        plan.validate();
        assert_eq!(plan.slowdown(2, SimTime::from_us(15)), 6.0);
        assert_eq!(plan.slowdown(2, SimTime::from_us(50)), 2.0);
        assert_eq!(plan.slowdown(5, SimTime::from_us(15)), 3.0);
        assert_eq!(plan.slowdown(9, SimTime::from_us(15)), 1.0);
        // Interval end is exclusive.
        assert_eq!(plan.slowdown(4, SimTime::from_us(20)), 1.0);
    }

    #[test]
    fn inflate_identity_without_active_straggler() {
        let plan = FaultPlan {
            stragglers: vec![Straggler {
                first_core: 1,
                last_core: 1,
                from: SimTime::from_ns(10),
                until: SimTime::from_ns(20),
                slowdown: 1.0,
            }],
            ..FaultPlan::default()
        };
        // slowdown == 1.0 must return the exact input, no float round trip.
        let odd = SimDuration::from_ps(1_234_567_891);
        assert_eq!(plan.inflate(1, SimTime::from_ns(15), odd), odd);
    }

    #[test]
    fn worker_death_is_permanent() {
        let plan = FaultPlan {
            worker_failures: vec![WorkerFailure {
                core: 7,
                at: SimTime::from_us(3),
            }],
            ..FaultPlan::default()
        };
        assert!(!plan.worker_dead(7, SimTime::from_us(2)));
        assert!(plan.worker_dead(7, SimTime::from_us(3)));
        assert!(plan.worker_dead(7, SimTime::MAX));
        assert!(!plan.worker_dead(6, SimTime::MAX));
    }

    #[test]
    fn noc_rng_is_deterministic_and_isolated() {
        let plan = FaultPlan {
            seed: 99,
            noc: Some(NocFaults {
                drop_prob: 0.5,
                delay_prob: 0.5,
                delay: SimDuration::from_ns(100),
            }),
            ..FaultPlan::default()
        };
        let seq = |p: &FaultPlan| {
            let mut r = p.noc_rng().unwrap();
            (0..64).map(|_| r.lossy()).collect::<Vec<_>>()
        };
        assert_eq!(seq(&plan), seq(&plan));
        // A different plan seed gives a different decision sequence.
        let other = FaultPlan {
            seed: 100,
            ..plan.clone()
        };
        assert_ne!(seq(&plan), seq(&other));
        // The stream is the dedicated FAULTS stream, decorrelated from the
        // workload streams derived from the same master seed.
        let mut workload = stream_rng(99, rng::streams::ARRIVALS);
        let mut faults = stream_rng(99, rng::streams::FAULTS);
        assert_ne!(workload.random::<u64>(), faults.random::<u64>());
    }

    #[test]
    fn zero_prob_noc_always_delivers() {
        let plan = FaultPlan {
            noc: Some(NocFaults {
                drop_prob: 0.0,
                delay_prob: 0.0,
                delay: SimDuration::from_ns(100),
            }),
            ..FaultPlan::default()
        };
        let mut r = plan.noc_rng().unwrap();
        for _ in 0..256 {
            assert_eq!(r.lossy(), NocDecision::Deliver);
            assert_eq!(r.reliable(), NocDecision::Deliver);
        }
    }

    #[test]
    fn stress_plan_is_deterministic_and_scales() {
        let cores: Vec<usize> = (0..64).filter(|c| c % 16 != 0).collect();
        let horizon = SimTime::from_us(500);
        let a = FaultPlan::stress(5, &cores, 0.5, horizon);
        let b = FaultPlan::stress(5, &cores, 0.5, horizon);
        assert_eq!(a, b);
        a.validate();
        assert!(!a.is_empty());

        let zero = FaultPlan::stress(5, &cores, 0.0, horizon);
        assert!(zero.is_empty());

        let heavy = FaultPlan::stress(5, &cores, 1.0, horizon);
        heavy.validate();
        assert!(heavy.stragglers.len() > a.stragglers.len());
        assert!(heavy.worker_failures.len() >= a.worker_failures.len());
        assert!(heavy.noc.unwrap().drop_prob > a.noc.unwrap().drop_prob);
        // Faults land inside the sheltered middle of the horizon.
        for f in &heavy.worker_failures {
            assert!(f.at.as_ps() >= horizon.as_ps() / 8);
            assert!(f.at.as_ps() < horizon.as_ps() - horizon.as_ps() / 8);
        }
    }
}
