//! Steady-state allocation budget for the full Altocumulus hot path.
//!
//! A warmed-up run is compared against a longer run of the same
//! configuration: the allocation *delta per extra event* must be pinned
//! near zero. The tolerance (well under 1/100 events) covers the only
//! remaining sanctioned sources — log-amortized growth of result/histogram
//! storage and the owned descriptor payload of rare MIGRATE sends — while
//! failing loudly if any per-event allocation (queue snapshots, per-tick
//! clones, planner buffers, mailbox churn) sneaks back into the loop.
//!
//! Two regimes are pinned under the default `Elided` control plane:
//! moderate load, where every tick broadcasts UPDATEs through the per-group
//! mailboxes (`MailEntry` pushes must reuse retained `Vec` capacity), and
//! near-idle load, where groups continuously go dormant and get woken by
//! arrivals (the fast-forward accounting and per-instant tick-seq block
//! reservation must not allocate either).
//!
//! A backlog regime pins heavy-tailed service at `local_bound = 2`, where
//! worker queues hold real backlog: steady state must stay allocation-free
//! there too.
//!
//! A further pair of regimes pin the telemetry layer: disabled telemetry
//! (the default [`Altocumulus::run_detailed`] path) must stay at the same
//! zero steady-state budget — the sink is monomorphized away — and enabled
//! telemetry may add only the recorder's own amortized ring growth (span
//! log doubling), nothing per-event beyond it.
//!
//! A last regime pins the rack tier's serial routing pass: doubling the
//! trace may add only the log-amortized growth of the routing outputs
//! (per-server sub-traces, id maps, load heaps), never a per-request
//! allocation.
//!
//! Runs without the libtest harness (`harness = false` in Cargo.toml): the
//! global counter is process-wide, and libtest's own main thread allocates
//! lazily mid-test (its channel-receive context), polluting the deltas — a
//! plain `fn main` keeps the process single-threaded.

use altocumulus::{AcConfig, Altocumulus, RackConfig, RackWorld, Telemetry};
use simcore::alloc::CountingAlloc;
use simcore::time::SimDuration;
use simcore::trace::{Granularity, Recorder};
use workload::arrival::PoissonProcess;
use workload::dist::ServiceDistribution;
use workload::trace::{Trace, TraceBuilder};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn trace(n: usize, load: f64) -> Trace {
    let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
    let rate = PoissonProcess::rate_for_load(load, 64, dist.mean());
    TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(n)
        .connections(256)
        .seed(1)
        .build()
}

fn run(trace: &Trace) -> (u64, u64) {
    let mean = SimDuration::from_ns(850);
    let mut ac = Altocumulus::new(AcConfig::ac_int(4, 16, mean));
    let before = ALLOC.allocations();
    let r = ac.run_detailed(trace);
    assert_eq!(r.system.completions.len(), trace.len());
    (ALLOC.allocations() - before, r.summary.events)
}

/// Bimodal service at a deeper `local_bound`: worker queues hold real
/// backlog, so deliveries land behind running requests and completions
/// start the next waiting one — all of which must run out of the capacity
/// retained after warmup.
fn run_backlog(trace: &Trace) -> (u64, u64) {
    let mean = SimDuration::from_ns(850);
    let mut cfg = AcConfig::ac_int(4, 16, mean);
    cfg.local_bound = 2;
    let mut ac = Altocumulus::new(cfg);
    let before = ALLOC.allocations();
    let r = ac.run_detailed(trace);
    assert_eq!(r.system.completions.len(), trace.len());
    (ALLOC.allocations() - before, r.summary.events)
}

/// Every delivery and completion flows through the main calendar queue as
/// a small Copy event holding a slab [`Handle`] (`simcore::slab`), so this
/// regime exercises the request arena's insert/take cycle on every request.
/// The slab grows to the high-water mark of concurrently in-flight payloads
/// during warmup and must then recycle slots through its free list — steady
/// state stays at the same zero per-event budget as the other regimes.
fn run_slab_arena(trace: &Trace) -> (u64, u64) {
    let mean = SimDuration::from_ns(850);
    let mut ac = Altocumulus::new(AcConfig::ac_int(4, 16, mean));
    let before = ALLOC.allocations();
    let r = ac.run_detailed(trace);
    assert_eq!(r.system.completions.len(), trace.len());
    (ALLOC.allocations() - before, r.summary.events)
}

fn bimodal_trace(n: usize, load: f64) -> Trace {
    let dist = ServiceDistribution::Bimodal {
        short: SimDuration::from_ns(500),
        long: SimDuration::from_us(20),
        p_long: 0.01,
    };
    let rate = PoissonProcess::rate_for_load(load, 64, dist.mean());
    TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(n)
        .connections(256)
        .seed(1)
        .build()
}

/// Like [`run`], but with a recording [`Telemetry`] sink attached. The
/// recorder is created *inside* the measured region with a fixed (small)
/// pre-size, so its constant setup cost cancels between the small and big
/// runs and only per-event recording cost — which must be amortized ring
/// growth, i.e. O(log n) reallocations — remains in the delta.
fn run_traced(trace: &Trace) -> (u64, u64) {
    let mean = SimDuration::from_ns(850);
    let mut ac = Altocumulus::new(AcConfig::ac_int(4, 16, mean));
    let before = ALLOC.allocations();
    let mut tel = Telemetry::with_capacity(1024, 1024);
    let r = ac.run_traced(trace, &mut tel);
    assert_eq!(r.system.completions.len(), trace.len());
    assert!(!tel.spans.is_empty());
    (ALLOC.allocations() - before, r.summary.events)
}

/// Like [`run_traced`], but with a span-granularity run [`Recorder`] (the
/// `--record-out` path): every event folds into the rolling digest and
/// every 512th pushes a checkpoint, so per-event recording cost must stay
/// amortized — checkpoint/span vector doubling only, no per-event heap
/// traffic. Recording *disabled* needs no separate regime: `run_detailed`
/// is the NullSink monomorphization already pinned at the zero budget by
/// the mailbox/dormancy regimes above.
fn run_recorded_spans(trace: &Trace) -> (u64, u64) {
    let mean = SimDuration::from_ns(850);
    let mut ac = Altocumulus::new(AcConfig::ac_int(4, 16, mean));
    let before = ALLOC.allocations();
    let mut rec = Recorder::with_capacity(Granularity::Spans, 0, 1024).with_perturb(None);
    let r = ac.run_recorded(trace, &mut rec);
    assert_eq!(r.system.completions.len(), trace.len());
    // The recorder observes exactly the events the loop dispatched.
    assert_eq!(rec.event_count(), r.summary.events);
    (ALLOC.allocations() - before, r.summary.events)
}

/// Allocations of one routing pass over a healthy 4-server rack under the
/// default policy (affinity plus power-of-2 sampling, so every decision
/// draws candidates and consults the affinity table).
fn route_allocs(trace: &Trace) -> u64 {
    let rack = RackWorld::new(RackConfig::ac(4, 2, 8, SimDuration::from_ns(850)));
    let before = ALLOC.allocations();
    let routing = rack.route(trace);
    let allocs = ALLOC.allocations() - before;
    assert_eq!(
        routing.sub_traces.iter().map(|t| t.len()).sum::<usize>(),
        trace.len()
    );
    assert!(routing.stats.rack_rng_draws > 0, "power-of-2 must sample");
    allocs
}

fn assert_pinned_by(
    label: &str,
    small_trace: &Trace,
    big_trace: &Trace,
    budget: f64,
    runner: fn(&Trace) -> (u64, u64),
) {
    // Warmup run so one-time lazy initialization is off the books.
    let _ = runner(small_trace);

    let (allocs_small, events_small) = runner(small_trace);
    let (allocs_big, events_big) = runner(big_trace);

    assert!(events_big > events_small, "bigger trace, more events");
    let extra_events = events_big - events_small;
    let extra_allocs = allocs_big.saturating_sub(allocs_small);
    let per_event = extra_allocs as f64 / extra_events as f64;
    assert!(
        per_event < budget,
        "{label}: steady-state allocation rate {per_event:.4}/event \
         ({extra_allocs} extra allocations over {extra_events} extra events)"
    );
}

fn assert_pinned(label: &str, small_trace: &Trace, big_trace: &Trace) {
    assert_pinned_by(label, small_trace, big_trace, 0.01, run);
}

fn main() {
    // Moderate load: the mailbox UPDATE path carries the manager plane.
    // `run_detailed` *is* the telemetry-disabled mode — the NullSink
    // monomorphization — so these two regimes double as the
    // telemetry-disabled zero-budget pin.
    assert_pinned("mailbox", &trace(20_000, 0.6), &trace(60_000, 0.6));
    // Near-idle load: dormancy, wake and idle-tick fast-forward dominate.
    assert_pinned("dormancy", &trace(5_000, 0.05), &trace(15_000, 0.05));
    // Backlog: heavy-tailed service with local_bound = 2 keeps multiple
    // descriptors pending per worker, so steady-state waiting-queue churn
    // must stay allocation-free.
    assert_pinned_by(
        "backlog",
        &bimodal_trace(20_000, 0.6),
        &bimodal_trace(60_000, 0.6),
        0.01,
        run_backlog,
    );
    // Slab request arena: every request's
    // metadata is parked in the group arena and its Deliver/WorkerDone
    // events travel the main queue as Copy handles. After warmup the
    // arena's free list must absorb all churn — growth only to the
    // high-water mark, then flat.
    assert_pinned_by(
        "slab-arena",
        &bimodal_trace(20_000, 0.6),
        &bimodal_trace(60_000, 0.6),
        0.01,
        run_slab_arena,
    );
    // Telemetry enabled: the recorder's span log doubles O(log n) times and
    // each rare MIGRATE still allocates its descriptor payload; everything
    // else must reuse capacity. The budget is deliberately a small multiple
    // of the disabled one, not a relaxation to "anything goes".
    assert_pinned_by(
        "telemetry-enabled",
        &trace(20_000, 0.6),
        &trace(60_000, 0.6),
        0.02,
        run_traced,
    );
    // Run recording at span granularity: digest folding is allocation-free
    // and checkpoints/span points land in vectors that double — the same
    // amortized shape as the telemetry regime, under the same budget.
    assert_pinned_by(
        "record-spans",
        &trace(20_000, 0.6),
        &trace(60_000, 0.6),
        0.02,
        run_recorded_spans,
    );
    // Rack routing pass: the live set, candidate scratch and affinity table
    // are reused across sends. Each of the three per-server output
    // vectors may double about once more on twice the requests; anything
    // per request shows up as thousands.
    let _ = route_allocs(&trace(20_000, 0.6));
    let small = route_allocs(&trace(20_000, 0.6));
    let big = route_allocs(&trace(40_000, 0.6));
    let tolerance = 2 * 3 * 4;
    assert!(
        big <= small + tolerance,
        "rack-routing: {big} allocations on 2N requests vs {small} on N \
         (tolerance {tolerance})"
    );
    println!("alloc_budget(altocumulus): all regimes pinned");
}
