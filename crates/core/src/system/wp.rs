//! The elided worker plane: analytic service timelines with lazy
//! materialization (`WorkerPlane::Elided`).
//!
//! The per-event oracle pushes one main-queue event per worker-plane step —
//! `Deliver` for every descriptor in flight, `WorkerDone` for every service
//! completion, `MgrOpDone` for every serialized ACrss dispatch op. After
//! PR 3 elided the manager plane these dominate the event count, and every
//! one of them is *locally determined*: the moment a quiet handler
//! schedules it, its time is final and only that group's own quiet handlers
//! can consume it. This engine therefore never lets them touch the calendar
//! queue. Quiet handlers run against a [`TimelineSink`] that parks their
//! pushes on one analytic [`Timeline`] keyed by real `(time, seq)` ranks —
//! each seq still reserved from the main queue via
//! [`EventQueue::reserve_seqs`] at the exact instant the oracle would have
//! pushed, so the global tie-break lattice is untouched — and the main loop
//! lazily materializes timeline entries by merging the timeline head with
//! the main-queue head.
//!
//! # Byte-identity argument
//!
//! The loop below replays [`run_streamed`](simcore::event::run_streamed)
//! over the *virtual* queue (main queue ∪ held event ∪ timeline):
//!
//! - **Order.** Every event, global or batched, executes at its exact
//!   `(time, seq)` rank. The one cached main-queue pop (`held`) stays valid
//!   across any run of timeline events because quiet handlers only ever
//!   push onto the timeline; any injection refill forces the cached pop
//!   back into the queue first (injected arrivals can out-rank it).
//! - **Refill.** Arrivals are topped up exactly when the oracle would:
//!   before executing a virtual head at `time >= source.next_time()` —
//!   ties refill, because reserved arrival seqs precede dynamic ones.
//! - **Accounting.** `peak_queue` samples the virtual population
//!   (`queue.len() + held + timeline.len()`) at the oracle's exact sample
//!   points (after each refill and each handled event); `end_time` and
//!   `stopped_early` come from a per-event stop check. Only
//!   `summary.events` legitimately differs: like the elided control plane,
//!   batched events are not main-loop events, so the count drops by the
//!   number of elided worker-plane steps.
//! - **Invalidation.** There is none to handle here by construction: the
//!   events that could truncate a planned timeline mid-batch — fault
//!   strikes (epoch bumps, straggler inflation, resteers) — exist only
//!   under a non-empty fault plan, and [`super::Altocumulus::run_with`]
//!   downgrades those runs wholesale to `WorkerPlane::EventDriven`.
//!   Migrate landings and mailbox drains are main-queue events, so they
//!   interleave with the timeline at their natural rank and need no
//!   truncation either.
//!
//! RNG draws: the worker plane makes none (NIC steering draws in the
//! injector, straggler inflation only under a fault plan), so draw counts
//! are identical trivially.

use simcore::event::{EventQueue, EventSource, RunSummary, World};
use simcore::telemetry::TelemetrySink;
use simcore::time::SimTime;
use simcore::timeline::Timeline;

use super::{AcWorld, Completion, Ev, QuietEnv, QuietSink, SystemResult};

/// The elided worker plane's [`QuietSink`]: follow-up events go to the
/// analytic timeline under a main-queue-reserved seq; spans and completions
/// apply directly, exactly like the serial oracle's sink.
struct TimelineSink<'a, S: TelemetrySink> {
    q: &'a mut EventQueue<Ev>,
    tl: &'a mut Timeline<Ev>,
    tel: &'a mut S,
    result: &'a mut SystemResult,
    completed: &'a mut usize,
}

/// One timeline lane per event *class*, not per producer: each class's
/// schedule times are near-monotone on their own — `Deliver` is
/// `now + intra-transfer latency` (constant under the coherent transfer,
/// so the lane is a pure FIFO), `MgrOpDone` is `now + dispatch_op`
/// (constant, FIFO), and `WorkerDone` is `now + service cost` (sorted up
/// to the service-time spread). Three lanes keep the merge frontier at
/// most three keys deep — the heap degenerates into a couple of compares —
/// while the per-lane backwards-scan insert absorbs any non-constant
/// latency a future transfer model might introduce.
const LANE_DELIVER: usize = 0;
const LANE_DONE: usize = 1;
const LANE_MGR_OP: usize = 2;
const LANES: usize = 3;

impl<S: TelemetrySink> QuietSink for TimelineSink<'_, S> {
    fn push(&mut self, at: SimTime, ev: Ev) {
        let lane = match &ev {
            Ev::Deliver(..) => LANE_DELIVER,
            Ev::WorkerDone(..) => LANE_DONE,
            Ev::MgrOpDone(_) => LANE_MGR_OP,
            _ => unreachable!("quiet handlers only schedule worker-plane events"),
        };
        let seq = self.q.reserve_seqs(1);
        self.tl.push(lane, at, seq, ev);
    }
    fn span(&mut self, track: u32, kind: u16, loc: u32, at: SimTime) {
        self.tel.span_point(track, kind, loc, at);
    }
    fn complete(&mut self, c: Completion) {
        self.result.record(c);
        *self.completed += 1;
    }
}

/// The healthy-run [`QuietEnv`] plus group `$g` and a [`TimelineSink`], as
/// visibly disjoint field borrows (the worker-plane twin of
/// `quiet_parts!`). The empty fault inputs are sound because fault plans
/// never reach this engine.
macro_rules! timeline_parts {
    ($w:expr, $g:expr, $q:expr, $tl:expr) => {{
        (
            QuietEnv {
                trace: $w.trace,
                cfg: $w.cfg,
                intra_transfer: &$w.intra_transfer,
                dispatch_op: $w.dispatch_op,
                epochs: &[],
                mgr_dead: false,
                inflate: false,
            },
            &mut $w.groups[$g],
            TimelineSink {
                q: $q,
                tl: $tl,
                tel: &mut *$w.tel,
                result: &mut $w.result,
                completed: &mut $w.completed,
            },
        )
    }};
}

/// Runs a healthy serial simulation with the worker plane elided. Returns
/// a [`RunSummary`] whose `events` counts main-queue events only; every
/// other field (and every simulation observable) is byte-identical to
/// [`run_streamed`](simcore::event::run_streamed) on the same world.
pub(super) fn run_elided<S: TelemetrySink>(
    w: &mut AcWorld<'_, S>,
    queue: &mut EventQueue<Ev>,
    source: &mut impl EventSource<Ev>,
) -> RunSummary {
    debug_assert!(
        w.faults.is_none(),
        "fault plans downgrade to WorkerPlane::EventDriven"
    );
    // One lane per event class (see the `LANE_*` constants), each
    // pre-sized for the whole mesh's worst-case pending population — every
    // worker holding `local_bound` descriptors in flight plus one
    // in-service completion, plus one serialized op per group — so the hot
    // loop never grows them.
    let per_lane = w.cfg.groups * (w.cfg.workers_per_group() * (w.cfg.local_bound + 1) + 1);
    let mut tl: Timeline<Ev> = Timeline::new(LANES, per_lane);

    let mut events = 0u64;
    let mut now = SimTime::ZERO;
    // One main-queue pop cached across timeline runs. Valid as the queue
    // minimum because timeline handlers never push to the main queue.
    let mut held: Option<(SimTime, u64, Ev)> = None;
    let mut peak = queue.len();
    let mut source_next = source.next_time();
    loop {
        if held.is_none() {
            held = queue.pop_with_seq();
        }
        // The virtual head: earliest of cached main-queue pop and timeline
        // head by `(time, seq)` — the oracle's total order.
        let local = tl.peek_key();
        let take_local = match (local, &held) {
            (Some(lk), Some((ht, hs, _))) => lk < (*ht, *hs),
            (Some(_), None) => true,
            (None, _) => false,
        };
        let head_time = if take_local {
            local.map(|(t, _)| t)
        } else {
            held.as_ref().map(|&(t, _, _)| t)
        };
        let Some(head_time) = head_time else {
            // Virtual queue empty: refill or finish (the oracle's empty-pop
            // branch).
            if source_next.is_none() {
                break;
            }
            source.inject_chunk(queue);
            source_next = source.next_time();
            peak = peak.max(queue.len() + tl.len());
            continue;
        };
        if source_next.is_some_and(|t| head_time >= t) {
            // The source may still hold an event at or before the head
            // (ties refill: reserved arrival seqs precede dynamic ones).
            // The cached pop goes back first — an injected arrival can
            // out-rank it.
            if let Some((t, seq, ev)) = held.take() {
                queue.push_at_seq(t, seq, ev);
            }
            source.inject_chunk(queue);
            source_next = source.next_time();
            peak = peak.max(queue.len() + tl.len());
            continue;
        }
        if take_local {
            let (t, seq, ev) = tl.pop().expect("checked non-empty");
            debug_assert!(t >= now, "timeline went backwards in time");
            now = t;
            // Timeline events carry the exact oracle `(time, seq)` rank, so
            // the recorded sequence is identical to the event-driven engine.
            w.observe(now, seq, &ev);
            handle_batched(w, ev, now, queue, &mut tl);
        } else {
            let (t, seq, ev) = held.take().expect("checked non-empty");
            debug_assert!(t >= now, "event queue went backwards in time");
            now = t;
            w.observe(now, seq, &ev);
            handle_global(w, ev, now, queue, &mut tl);
            events += 1;
        }
        peak = peak.max(queue.len() + usize::from(held.is_some()) + tl.len());
        if w.should_stop(now) {
            return RunSummary {
                events,
                end_time: now,
                stopped_early: true,
                peak_queue: peak,
            };
        }
    }
    RunSummary {
        events,
        end_time: now,
        stopped_early: false,
        peak_queue: peak,
    }
}

/// A main-queue event, dispatched like [`World::handle`] minus every fault
/// branch (downgraded away), with quiet effects routed to the timeline.
fn handle_global<S: TelemetrySink>(
    w: &mut AcWorld<'_, S>,
    ev: Ev,
    now: SimTime,
    q: &mut EventQueue<Ev>,
    tl: &mut Timeline<Ev>,
) {
    match ev {
        Ev::Enqueue(g, idx) => {
            let (g, idx) = (g as usize, idx as usize);
            // Healthy runs have no takeover redirection: `live_group` is the
            // identity. Arrivals still wake dormant groups first.
            w.wake_group(g, now, None, q);
            let (env, grp, mut sink) = timeline_parts!(w, g, q, tl);
            env.enqueue(g, idx, now, grp, &mut sink);
        }
        Ev::Tick(g) => w.runtime_tick(g as usize, now, q),
        Ev::Msg { dst, seq, msg } => {
            let msg = w.msg_slab.take(msg);
            if let Some(g) = w.handle_msg_inner(dst as usize, seq, msg, now, q) {
                let (env, grp, mut sink) = timeline_parts!(w, g, q, tl);
                env.try_dispatch(g, now, grp, &mut sink);
            }
        }
        Ev::RecvDrained(g) => {
            let g = g as usize;
            w.groups[g].recv_fifo = w.groups[g].recv_fifo.saturating_sub(1);
        }
        Ev::Deliver(..) | Ev::WorkerDone(..) | Ev::MgrOpDone(..) => {
            unreachable!("worker-plane events never enter the elided main queue")
        }
        Ev::Fault(_) => unreachable!("fault plans downgrade to WorkerPlane::EventDriven"),
    }
}

/// A lazily-materialized timeline event: the healthy cores of the quiet
/// handlers, running at the exact `(time, seq)` rank the oracle would have
/// popped them at.
fn handle_batched<S: TelemetrySink>(
    w: &mut AcWorld<'_, S>,
    ev: Ev,
    now: SimTime,
    q: &mut EventQueue<Ev>,
    tl: &mut Timeline<Ev>,
) {
    match ev {
        Ev::Deliver(g, wk, h) => {
            let (g, wk) = (g as usize, wk as usize);
            debug_assert!(!w.cold[g].dormant, "deliver at a dormant group");
            let (env, grp, mut sink) = timeline_parts!(w, g, q, tl);
            env.deliver(g, wk, h, now, grp, &mut sink);
        }
        Ev::WorkerDone(g, wk, epoch) => {
            let (g, wk) = (g as usize, wk as usize);
            debug_assert_eq!(epoch, 0, "healthy workers never change epoch");
            debug_assert!(!w.cold[g].dormant, "completion at a dormant group");
            let (env, grp, mut sink) = timeline_parts!(w, g, q, tl);
            env.worker_done(g, wk, now, grp, &mut sink);
        }
        Ev::MgrOpDone(g) => {
            let g = g as usize;
            let (env, grp, mut sink) = timeline_parts!(w, g, q, tl);
            env.mgr_op_done(g, now, grp, &mut sink);
        }
        _ => unreachable!("only worker-plane events ride the timeline"),
    }
}
