//! Property tests for the record/replay trace contract.
//!
//! The recorded event stream is a run identity: on any configuration, two
//! `TRACE/1.0` recordings of the same run must be identical — event for
//! event, at exact `(time, seq)` rank. A summary-granularity recording (the
//! golden-trace format) must likewise verify digest-for-digest against a
//! full re-recording, which is exactly what the `replay` binary does for a
//! golden gate.
//!
//! The corruption properties pin the *detector*: flipping one payload,
//! dropping one event, or perturbing the recording by a single picosecond
//! (the `AC_TRACE_PERTURB` hook, exercised here programmatically via
//! [`Recorder::with_perturb`] to stay env-race-free under parallel test
//! threads) must be rejected at exactly the first divergent index, with a
//! diff that names the divergent `(time, seq)`.

use altocumulus::{event_kind_names, AcConfig, Altocumulus};
use proptest::prelude::*;
use simcore::time::SimDuration;
use simcore::trace::{
    first_divergence, parse_artifact, render_divergence, validate_artifact, write_artifact_meta,
    write_run_section, Divergence, Granularity, ParsedRun, Recorder, RunMeta, RunTotals,
};
use workload::{PoissonProcess, ServiceDistribution, Trace, TraceBuilder};

#[derive(Debug, Clone)]
struct Case {
    groups: usize,
    group_size: usize,
    load: f64,
    connections: u32,
    seed: u64,
    fixed_service: bool,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        2usize..6, // groups (>= 2 so managers exchange protocol messages)
        2usize..7, // group_size
        0.05f64..0.9,
        1u32..32,
        0u64..1000,
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(
            |(groups, group_size, load, connections, seed, fixed_service)| Case {
                groups,
                group_size,
                load,
                connections,
                seed,
                fixed_service,
            },
        )
}

fn trace_for(case: &Case, requests: usize) -> Trace {
    let mean = SimDuration::from_ns(850);
    let dist = if case.fixed_service {
        ServiceDistribution::Fixed(mean)
    } else {
        ServiceDistribution::Exponential { mean }
    };
    let cores = case.groups * case.group_size;
    let rate = PoissonProcess::rate_for_load(case.load, cores, dist.mean());
    TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(requests)
        .connections(case.connections)
        .seed(case.seed)
        .build()
}

/// Records one run of `case` and parses the section back.
/// `config_fp`/`trace_fp` are pinned to 0 — this suite compares *event
/// streams*, not provenance (which has its own unit tests).
fn record(case: &Case, trace: &Trace, perturb: Option<u64>, granularity: Granularity) -> ParsedRun {
    let mean = SimDuration::from_ns(850);
    let mut cfg = AcConfig::ac_int(case.groups, case.group_size, mean);
    cfg.seed = case.seed;
    let seed = cfg.seed;
    let mut sys = Altocumulus::new(cfg);
    let mut rec = Recorder::new(granularity).with_perturb(perturb);
    let res = sys.run_recorded(trace, &mut rec);
    let meta = RunMeta {
        label: "case".into(),
        engine: res.engine,
        seed,
        config_fp: 0,
        trace_fp: 0,
        topology: None,
        params: Vec::new(),
    };
    let totals = RunTotals {
        rng: vec![
            ("nic".into(), res.rng.nic),
            ("faults".into(), res.rng.faults),
        ],
        end_ps: res.summary.end_time.as_ps(),
        completed: res.system.completions.len() as u64,
    };
    let mut text = String::new();
    write_artifact_meta(&mut text, "prop_replay", "prop_replay", true, 1);
    write_run_section(&mut text, &meta, &rec, &totals);
    // A perturbed recording may legitimately fail schema validation (the
    // +1 ps bump can break strict (time, seq) monotonicity against the
    // next event) — in the real pipeline that is already a catch. Here the
    // divergence detector itself is under test, so only honest recordings
    // are schema-gated.
    if perturb.is_none() {
        validate_artifact(&text).expect("fresh recording passes schema validation");
    }
    parse_artifact(&text)
        .expect("fresh recording parses")
        .runs
        .remove(0)
}

fn diff_of(expected: &ParsedRun, actual: &ParsedRun) -> String {
    match first_divergence(expected, actual) {
        None => String::new(),
        Some(d) => render_divergence(&d, expected, actual, event_kind_names(), 4),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Record -> replay round-trips divergence-free: two full recordings
    /// of one run agree event for event, and a summary-granularity
    /// recording (the golden format) verifies against a full re-record.
    #[test]
    fn round_trip_is_divergence_free(case in case_strategy()) {
        let trace = trace_for(&case, 2_000);
        let full = record(&case, &trace, None, Granularity::Full);
        prop_assert_eq!(&full.engine, "serial_event_driven");
        prop_assert!(full.footer.events > 0);

        let again = record(&case, &trace, None, Granularity::Full);
        let d = diff_of(&full, &again);
        prop_assert!(d.is_empty(), "re-recording diverged:\n{}", d);

        // Golden flow: summary recording vs full re-record.
        let summary = record(&case, &trace, None, Granularity::Summary);
        let d = diff_of(&summary, &full);
        prop_assert!(d.is_empty(), "summary vs full replay diverged:\n{}", d);
    }

    /// A corrupted artifact is rejected at exactly the corrupted index:
    /// flipping one payload bit or dropping one event yields an event
    /// divergence at that index, never a pass and never a later index.
    #[test]
    fn corruption_is_caught_at_the_exact_index(
        case in case_strategy(),
        pick in 0u64..u64::MAX,
    ) {
        let trace = trace_for(&case, 1_000);
        let honest = record(&case, &trace, None, Granularity::Full);
        prop_assume!(!honest.events.is_empty());
        let i = (pick % honest.events.len() as u64) as usize;

        let mut flipped = honest.clone();
        flipped.events[i].payload ^= 0xFF;
        match first_divergence(&flipped, &honest) {
            Some(Divergence::Event { index, .. }) => prop_assert_eq!(index, i as u64),
            other => prop_assert!(false, "expected event divergence at {}, got {:?}", i, other),
        }

        let mut dropped = honest.clone();
        dropped.events.remove(i);
        match first_divergence(&dropped, &honest) {
            Some(Divergence::Event { index, .. }) => prop_assert_eq!(index, i as u64),
            other => prop_assert!(false, "expected event divergence at {}, got {:?}", i, other),
        }
    }
}

/// The seeded-mutation acceptance demo: a recording perturbed via the
/// `AC_TRACE_PERTURB` hook (programmatic form) replays with a divergence at
/// exactly the perturbed index, and the rendered diff names the divergent
/// `(time, seq)` on its `>>` marker line.
#[test]
fn perturbed_recording_is_caught_with_exact_location() {
    let case = Case {
        groups: 2,
        group_size: 4,
        load: 0.5,
        connections: 16,
        seed: 7,
        fixed_service: false,
    };
    let trace = trace_for(&case, 2_000);
    let honest = record(&case, &trace, None, Granularity::Full);
    let k = honest.events.len() / 3;
    let perturbed = record(&case, &trace, Some(k as u64), Granularity::Full);

    let div = first_divergence(&perturbed, &honest).expect("perturbation must be caught");
    let Divergence::Event {
        index,
        expected: Some(e),
        actual: Some(a),
    } = div
    else {
        panic!("expected an event divergence, got {div:?}");
    };
    assert_eq!(index, k as u64, "first divergence at the perturbed index");
    assert_eq!(
        e.t_ps,
        a.t_ps + 1,
        "perturbation bumps time by one picosecond"
    );
    assert_eq!(e.seq, a.seq);

    let text = render_divergence(
        &Divergence::Event {
            index,
            expected: Some(e),
            actual: Some(a),
        },
        &perturbed,
        &honest,
        event_kind_names(),
        4,
    );
    assert!(
        text.contains(">>"),
        "diff marks the divergent line:\n{text}"
    );
    assert!(
        text.contains(&format!("t={}ps", a.t_ps)) && text.contains(&format!("seq={}", a.seq)),
        "diff names the divergent (time, seq):\n{text}"
    );
}
