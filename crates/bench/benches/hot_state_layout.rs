//! Criterion micro-benchmark for the compacted hot-state layout: per-event
//! cost of the default engine at the small 4×16 mesh vs the 1024-core 32×32
//! mesh (64 groups × 16). The whole point of the SoA hot/cold split, the
//! slab request arena and the stage-hint staging bound is that this cost is
//! *flat* in mesh size — a tick touches the dense hot plane of the groups
//! it concerns, never O(groups) scattered structs.
//!
//! Setup runs a best-of-3 flatness sanity check before the measured
//! passes: the 32×32 per-event cost must stay within 2.5× of the 4×16
//! cost. That bound is deliberately loose (this can run on wildly noisy
//! machines); the tight ±25% gate lives in the recorded best-of-7
//! BENCH_hotpath.json refresh.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simcore::time::SimDuration;
use std::time::Instant;
use workload::{PoissonProcess, ServiceDistribution, Trace, TraceBuilder};

use altocumulus::{AcConfig, Altocumulus};

fn trace_for(cores: usize, requests: usize) -> Trace {
    let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
    let rate = PoissonProcess::rate_for_load(0.6, cores, dist.mean());
    TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(requests)
        .connections(16)
        .seed(1)
        .build()
}

/// Best-of-3 nanoseconds per main-loop event for one configuration.
fn ns_per_event(cfg: &AcConfig, trace: &Trace) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..3 {
        let mut sys = Altocumulus::new(cfg.clone());
        let start = Instant::now();
        let r = sys.run_detailed(trace);
        let ns = start.elapsed().as_nanos() as f64;
        assert_eq!(r.system.completions.len(), trace.len());
        best = best.min(ns / r.summary.events as f64);
    }
    best
}

fn bench_layout(c: &mut Criterion) {
    let mean = SimDuration::from_ns(850);
    let small_cfg = AcConfig::ac_int(4, 16, mean);
    let huge_cfg = AcConfig::ac_int(64, 16, mean);
    let small_trace = trace_for(64, 8_000);
    let huge_trace = trace_for(1024, 20_000);

    // Flatness sanity: per-event cost must not grow with the mesh.
    let small_npe = ns_per_event(&small_cfg, &small_trace);
    let huge_npe = ns_per_event(&huge_cfg, &huge_trace);
    assert!(
        huge_npe < small_npe * 2.5,
        "per-event cost not flat in mesh size: 4x16 {small_npe:.0} ns/event, \
         32x32 {huge_npe:.0} ns/event"
    );

    let mut g = c.benchmark_group("hot_state_layout");
    g.sample_size(10);
    g.bench_function("elided_4x16", |b| {
        b.iter(|| {
            let r = Altocumulus::new(small_cfg.clone()).run_detailed(&small_trace);
            black_box(r.summary.events)
        });
    });
    g.bench_function("elided_32x32", |b| {
        b.iter(|| {
            let r = Altocumulus::new(huge_cfg.clone()).run_detailed(&huge_trace);
            black_box(r.summary.events)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_layout);
criterion_main!(benches);
