//! The benchmark's own checks must be able to fail, and its simulated
//! metrics must depend on the seed and nothing else. Small traces keep
//! these fast; run with `cargo test --release`.

use altocumulus::Altocumulus;
use perfbench::layers::{counter_metrics, purpose_guard, traced_run};
use perfbench::metric::Metrics;
use perfbench::sim::{check_rack_conservation, digest, Pool, SimMetrics};
use perfbench::workloads::{
    trace_seed, Outcome, System, Workload, World, DEFAULT_SEED, FANOUT_THREADS, HELD_OUT_SEED,
};

const REQUESTS: usize = 20_000;

fn sim(w: Workload, seed: u64, threads: usize) -> (SimMetrics, u64) {
    let trace = w.trace(trace_seed(seed, 0), REQUESTS);
    let out = World::new(w.system(trace_seed(seed, 0), &trace)).run(&trace, threads);
    let mut pool = Pool::default();
    let d = pool
        .add(&trace, out.completions())
        .expect("outputs pass the checks");
    (pool.finish().expect("requests complete"), d)
}

#[test]
fn server_bursty_guard_trips_without_migration() {
    let w = Workload::ServerBursty;
    let trace = w.trace(DEFAULT_SEED, 50_000);
    let System::Server(mut cfg) = w.system(DEFAULT_SEED, &trace) else {
        panic!("server_bursty runs one server")
    };
    let guard = |cfg: &altocumulus::AcConfig| {
        let res = Altocumulus::new(cfg.clone()).run_detailed(&trace);
        let mut m = Metrics::default();
        counter_metrics(&mut m, trace.len(), &[&res]);
        purpose_guard(w, &m)
    };
    assert_eq!(guard(&cfg), Ok(()));
    cfg.migration_enabled = false;
    let err = guard(&cfg).expect_err("no migration must trip the guard");
    assert!(err.contains("migrated only"), "{err}");
}

#[test]
fn same_seed_repeats_byte_for_byte() {
    for w in Workload::ALL {
        assert_eq!(
            sim(w, DEFAULT_SEED, FANOUT_THREADS),
            sim(w, DEFAULT_SEED, FANOUT_THREADS)
        );
    }
}

#[test]
fn racks_agree_at_one_and_two_threads() {
    for w in [Workload::RackFixed, Workload::RackFaults] {
        assert_eq!(
            sim(w, DEFAULT_SEED, 1),
            sim(w, DEFAULT_SEED, 2),
            "{}",
            w.name()
        );
    }
}

#[test]
fn held_out_seed_gives_other_values() {
    for w in Workload::ALL {
        let (a, da) = sim(w, DEFAULT_SEED, FANOUT_THREADS);
        let (b, db) = sim(w, HELD_OUT_SEED, FANOUT_THREADS);
        assert_ne!(da, db, "{}", w.name());
        assert_ne!(a.mean_us, b.mean_us, "{}", w.name());
    }
}

#[test]
fn traced_run_reproduces_the_untraced_run() {
    for w in Workload::ALL {
        let seed = trace_seed(DEFAULT_SEED, 0);
        let traced = traced_run(w, seed, REQUESTS).expect("traced run passes its checks");
        let trace = w.trace(seed, REQUESTS);
        let out = World::new(w.system(seed, &trace)).run(&trace, FANOUT_THREADS);
        assert_eq!(
            Ok(traced.digest),
            digest(&trace, out.completions()),
            "{}",
            w.name()
        );
        let names: Vec<&str> = traced.layers.0.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"rack.route_s") && names.contains(&"phase.service.tail_us"));
    }
}

#[test]
fn rack_faults_exercises_faults_and_deaths() {
    let traced = traced_run(Workload::RackFaults, DEFAULT_SEED, REQUESTS).expect("checks pass");
    assert_eq!(purpose_guard(Workload::RackFaults, &traced.layers), Ok(()));
    assert!(
        traced.engines.contains("serial_event_driven"),
        "{}",
        traced.engines
    );
}

#[test]
fn conservation_check_catches_a_double_count() {
    let w = Workload::ServerBursty;
    let trace = w.trace(DEFAULT_SEED, 2_000);
    let out = World::new(w.system(DEFAULT_SEED, &trace)).run(&trace, 1);
    let mut doubled = out.completions().to_vec();
    doubled.push(doubled[0]);
    let err = digest(&trace, &doubled).expect_err("a request completing twice");
    assert!(err.contains("completed twice"), "{err}");
    let mut early = out.completions().to_vec();
    early[0].finish = early[0].arrival;
    assert!(
        digest(&trace, &early).is_err(),
        "latency below service time"
    );
}

#[test]
fn rack_conservation_catches_a_miscredited_server() {
    let w = Workload::RackFaults;
    let trace = w.trace(DEFAULT_SEED, REQUESTS);
    let System::Rack(cfg) = w.system(DEFAULT_SEED, &trace) else {
        panic!("rack_faults runs a rack")
    };
    let mut out = World::new(System::Rack(cfg.clone())).run(&trace, FANOUT_THREADS);
    assert_eq!(check_rack_conservation(&cfg, &out), Ok(()));
    let Outcome::Rack(r) = &mut out else {
        panic!("a rack returns a rack result")
    };
    r.per_server[0].completed += 1;
    assert!(check_rack_conservation(&cfg, &out).is_err());
}
