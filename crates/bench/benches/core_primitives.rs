//! Criterion micro-benchmarks for the hot primitives every simulation run
//! leans on: the event queue, latency histogram, Erlang-C evaluation,
//! pattern classification/planning and the bounded hardware structures.

use altocumulus::hw::fifo::BoundedFifo;
use altocumulus::runtime::patterns::{classify, plan_migrations};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use queueing::erlang::{erlang_c, expected_queue_len};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpcstack::nic::Steering;
use simcore::event::EventQueue;
use simcore::metrics::LatencyHistogram;
use simcore::time::{SimDuration, SimTime};
use workload::request::ConnectionId;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_1k", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let times: Vec<SimTime> = (0..1000)
            .map(|_| SimTime::from_ns(rng.random_range(0..1_000_000)))
            .collect();
        b.iter(|| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(t, i);
            }
            let mut sum = 0usize;
            while let Some((_, e)) = q.pop() {
                sum += e;
            }
            black_box(sum)
        });
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram/record_10k", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<SimDuration> = (0..10_000)
            .map(|_| SimDuration::from_ns(rng.random_range(1..10_000_000)))
            .collect();
        b.iter(|| {
            let mut h = LatencyHistogram::new();
            for &s in &samples {
                h.record(s);
            }
            black_box(h.count())
        });
    });
    c.bench_function("histogram/p99_of_1M", |b| {
        let mut h = LatencyHistogram::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1_000_000 {
            h.record(SimDuration::from_ns(rng.random_range(1..10_000_000)));
        }
        b.iter(|| black_box(h.quantile(0.99)));
    });
}

fn bench_erlang(c: &mut Criterion) {
    c.bench_function("erlang/c_256_servers", |b| {
        b.iter(|| black_box(erlang_c(black_box(256), black_box(250.0))));
    });
    c.bench_function("erlang/expected_queue_len_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..100 {
                acc += expected_queue_len(64, 64.0 * i as f64 / 101.0);
            }
            black_box(acc)
        });
    });
}

fn bench_patterns(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let q: Vec<u32> = (0..16).map(|_| rng.random_range(0..200)).collect();
    c.bench_function("patterns/classify_16", |b| {
        b.iter(|| black_box(classify(black_box(&q), 16)));
    });
    c.bench_function("patterns/plan_16_managers", |b| {
        b.iter(|| black_box(plan_migrations(3, black_box(&q), 50, 16, 8)));
    });
}

fn bench_hw(c: &mut Criterion) {
    c.bench_function("hw/fifo_cycle_16", |b| {
        b.iter(|| {
            let mut f = BoundedFifo::paper_sized();
            for i in 0..16 {
                let _ = f.push(i);
            }
            let mut sum = 0;
            while let Some(v) = f.pop() {
                sum += v;
            }
            black_box(sum)
        });
    });
    c.bench_function("nic/rss_steer_1k", |b| {
        let mut steering = Steering::rss();
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..1000u32 {
                acc += steering.steer(ConnectionId(i), 16, &mut rng);
            }
            black_box(acc)
        });
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_histogram,
    bench_erlang,
    bench_patterns,
    bench_hw
);
criterion_main!(benches);
