//! Byte-identity pins for every baseline scheduler.
//!
//! Each case runs one baseline on a fixed trace and folds everything the run
//! reports into one FNV-1a digest: every completion in completion order
//! (`id, arrival, finish, core, migrated`), the end instant, and the
//! system's extra outputs (`WorkStealing::stolen()`, and
//! `InstrumentedResult::arrival_queue_len` for the central queue). The
//! constants were computed on the per-system engines that preceded the
//! shared core-pool engine, so any change to event order, tie-breaking,
//! RNG draw order or fault handling shows up here as a digest mismatch.
//!
//! The cases cover all six published variants plus the idealized central
//! queue with and without scheduling overhead; Bimodal service, so the
//! preemptive systems (Shinjuku, nanoPU) really slice; a 64-core Nebula,
//! which splits into two JBSQ coherence domains; ZygOS with fewer
//! connections than cores, so it steals; and d-FCFS and Nebula each under
//! one worker death plus one straggler (and nanoPU, whose preempted
//! slices meet the same fault path).

use schedulers::central::{CentralConfig, CentralDispatch};
use schedulers::common::{RpcSystem, SystemResult};
use schedulers::dfcfs::{DFcfs, DFcfsConfig};
use schedulers::ideal::{CentralQueue, CentralQueueConfig};
use schedulers::jbsq::{Jbsq, JbsqConfig, JbsqVariant};
use schedulers::stealing::{StealingConfig, WorkStealing};
use simcore::faults::{FaultPlan, Straggler, WorkerFailure};
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{fnv1a64, fnv1a64_fold};
use workload::{PoissonProcess, ServiceDistribution, Trace, TraceBuilder};

const REQUESTS: usize = 20_000;

fn trace(dist: ServiceDistribution, load: f64, cores: usize, conns: u32) -> Trace {
    let rate = PoissonProcess::rate_for_load(load, cores, dist.mean());
    TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(REQUESTS)
        .connections(conns)
        .seed(0xD16E)
        .build()
}

fn bimodal(cores: usize) -> Trace {
    trace(ServiceDistribution::bimodal_paper(), 0.7, cores, 128)
}

fn fixed(cores: usize) -> Trace {
    let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
    trace(dist, 0.7, cores, 128)
}

/// Digest of a run's completions (in completion order) and end instant.
fn digest(r: &SystemResult) -> u64 {
    let mut h = fnv1a64(b"pool-digest");
    for c in &r.completions {
        h = fnv1a64_fold(h, c.id.0);
        h = fnv1a64_fold(h, c.arrival.as_ps());
        h = fnv1a64_fold(h, c.finish.as_ps());
        h = fnv1a64_fold(h, c.core as u64);
        h = fnv1a64_fold(h, c.migrated as u64);
    }
    fnv1a64_fold(h, r.end_time.as_ps())
}

/// One worker death and one straggler, both mid-run on a 16-core server.
fn faults_16() -> FaultPlan {
    FaultPlan {
        worker_failures: vec![WorkerFailure {
            core: 5,
            at: SimTime::from_us(300),
        }],
        stragglers: vec![Straggler {
            first_core: 9,
            last_core: 12,
            from: SimTime::from_us(150),
            until: SimTime::from_us(900),
            slowdown: 3.5,
        }],
        ..FaultPlan::default()
    }
}

fn jbsq(variant: JbsqVariant, cores: usize, t: &Trace) -> u64 {
    digest(&Jbsq::new(variant, cores).run(t))
}

fn central_queue(cfg: CentralQueueConfig, t: &Trace) -> u64 {
    let r = CentralQueue::new(cfg).run_instrumented(t);
    r.arrival_queue_len
        .iter()
        .fold(digest(&r.system), |h, &l| fnv1a64_fold(h, l as u64))
}

#[test]
fn dfcfs_rss() {
    let d = digest(&DFcfs::new(DFcfsConfig::rss(16)).run(&bimodal(16)));
    assert_eq!(d, 7281317458660920033, "d-FCFS/RSS digest");
}

#[test]
fn dfcfs_faulted() {
    let cfg = DFcfsConfig {
        faults: faults_16(),
        ..DFcfsConfig::rss(16)
    };
    let r = DFcfs::new(cfg).run(&fixed(16));
    assert!(
        r.completions.len() < REQUESTS,
        "the dead core loses requests"
    );
    assert_eq!(digest(&r), 14079044015062612734, "faulted d-FCFS digest");
}

#[test]
fn zygos_steals_with_few_connections() {
    let t = trace(ServiceDistribution::bimodal_paper(), 0.7, 16, 6);
    let mut sys = WorkStealing::new(StealingConfig::zygos(16));
    let r = sys.run(&t);
    assert!(sys.stolen() > 0, "six connections on 16 cores must steal");
    let d = fnv1a64_fold(digest(&r), sys.stolen());
    assert_eq!(d, 7353497223126036841, "ZygOS digest");
}

#[test]
fn shinjuku_preempts() {
    let t = bimodal(16);
    let d = digest(&CentralDispatch::new(CentralConfig::shinjuku(16)).run(&t));
    let unsliced = CentralConfig {
        quantum: None,
        ..CentralConfig::shinjuku(16)
    };
    assert_ne!(d, digest(&CentralDispatch::new(unsliced).run(&t)));
    assert_eq!(d, 7846654435189578771, "Shinjuku digest");
}

#[test]
fn rpcvalet() {
    assert_eq!(
        jbsq(JbsqVariant::RpcValet, 16, &bimodal(16)),
        16022863617168577336
    );
}

#[test]
fn nebula() {
    assert_eq!(
        jbsq(JbsqVariant::Nebula, 16, &bimodal(16)),
        3172757550966094738
    );
}

#[test]
fn nebula_two_domains() {
    assert_eq!(JbsqConfig::of(JbsqVariant::Nebula, 64).domain_size, 32);
    assert_eq!(
        jbsq(JbsqVariant::Nebula, 64, &bimodal(64)),
        15750575668642186112
    );
}

#[test]
fn nebula_faulted() {
    let cfg = JbsqConfig {
        faults: faults_16(),
        ..JbsqConfig::of(JbsqVariant::Nebula, 16)
    };
    let r = Jbsq::with_config(JbsqVariant::Nebula, cfg).run(&fixed(16));
    assert!(
        r.completions.len() < REQUESTS,
        "the dead core loses requests"
    );
    assert_eq!(digest(&r), 6963808242988230697, "faulted Nebula digest");
}

#[test]
fn nanopu_preempts() {
    let t = bimodal(16);
    let d = jbsq(JbsqVariant::NanoPu, 16, &t);
    assert_eq!(d, 10210419093390410740);
    let unsliced = JbsqConfig {
        quantum: None,
        ..JbsqConfig::of(JbsqVariant::NanoPu, 16)
    };
    assert_ne!(
        d,
        digest(&Jbsq::with_config(JbsqVariant::NanoPu, unsliced).run(&t))
    );
}

#[test]
fn central_queue_ideal() {
    assert_eq!(
        central_queue(CentralQueueConfig::ideal(16), &bimodal(16)),
        13345869967734237035
    );
}

#[test]
fn central_queue_with_overhead() {
    let cfg = CentralQueueConfig {
        cores: 16,
        sched_overhead: SimDuration::from_ns(120),
    };
    assert_eq!(central_queue(cfg, &bimodal(16)), 2550999254569768851);
}

#[test]
fn nanopu_faulted() {
    let cfg = JbsqConfig {
        faults: faults_16(),
        ..JbsqConfig::of(JbsqVariant::NanoPu, 16)
    };
    let r = Jbsq::with_config(JbsqVariant::NanoPu, cfg).run(&bimodal(16));
    assert_eq!(digest(&r), 18395533142802359458, "faulted nanoPU digest");
}
