//! `CorePool`: the one discrete-event engine behind every baseline. It owns
//! what Table I's baselines share (arrivals, queues, slicing, faults and the
//! one completion-recording site); a statically dispatched [`Policy`]
//! supplies what differs: a [`Shape`] and the steal hooks.
//!
//! A core's occupancy counts its running request, local queue, in-flight
//! hand-offs and any stall a serial dispatcher reserves, never the arrival
//! queues. Every change that could free a slot drains the arrival queue, so
//! a non-empty queue means every live core it feeds is at the bound; only a
//! serial dispatcher can leave cores idle behind one. The pool leans on
//! that to skip scans that must come up empty or name the core just freed.

use crate::common::{on_core_cost, OccTable, QueuedRequest, SystemResult};
use rand::rngs::StdRng;
use rpcstack::nic::{Steering, Transfer};
use rpcstack::stack::StackModel;
use simcore::event::{run_streamed, EventQueue, StreamInjector, World};
use simcore::faults::FaultPlan;
use simcore::rng::{stream_rng, streams};
use simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use workload::request::Completion;
use workload::trace::Trace;

/// How an arrival queue hands its head to the core it picked.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) enum Handoff {
    /// The core starts it in the same instant (RSS queues, ideal c-FCFS).
    #[default]
    Inline,
    /// It lands after the NIC→core transfer (JBSQ's hardware push).
    Transfer(Transfer),
    /// One serial dispatcher core spends this long per hand-off, and sees a
    /// preempted core busy until its stall ends (Shinjuku).
    Dispatcher(SimDuration),
}

/// The static layout of one system.
#[derive(Debug, Clone, Default)]
pub(crate) struct Shape {
    /// Worker cores in the pool.
    pub cores: usize,
    /// Global id of worker 0 in completion records.
    pub first_core: usize,
    /// On-NIC delay before a request is steered.
    pub mac_delay: SimDuration,
    /// NIC→core transfer paid before the request reaches its queue.
    pub transfer: Option<Transfer>,
    /// RPC stack each request pays on its core (receive, and a 64 B reply).
    pub stack: Option<StackModel>,
    /// Fixed per-request scheduling overhead on the core.
    pub overhead: SimDuration,
    /// Connection steering across the queues and its RNG seed; requests
    /// join queue 0 when this is `None` or there is only one queue.
    pub steering: Option<(Steering, u64)>,
    /// Cores each arrival queue feeds: 1 for a core's own RSS queue, a JBSQ
    /// coherence domain, or the whole pool for one central queue.
    pub domain: usize,
    /// A core is eligible while its occupancy is below this bound; among
    /// eligible cores the least occupied, lowest-indexed one is picked.
    pub bound: u32,
    /// How the picked core receives the request.
    pub handoff: Handoff,
    /// Longest slice a request runs before it rejoins its arrival queue;
    /// `None` runs every request to completion.
    pub quantum: Option<SimDuration>,
    /// Stall a core pays after each preemption.
    pub preempt_overhead: SimDuration,
    /// Injected faults, on pool core ids.
    pub faults: FaultPlan,
}

impl Shape {
    /// One queue per core, each started in the same instant, with no NIC
    /// transfer, stack, overhead, steering, preemption or faults.
    pub fn new(cores: usize, mac_delay: SimDuration) -> Self {
        Shape {
            cores,
            mac_delay,
            domain: 1,
            bound: 1,
            ..Shape::default()
        }
    }
}

/// A steal: the taking core and the extra on-core cost of moving a request.
pub(crate) type Steal = Option<(usize, SimDuration)>;

/// What differs between the baseline schedulers.
pub(crate) trait Policy {
    /// The system's layout; read once per run.
    fn shape(&self) -> Shape;

    /// A fresh arrival its own queue could not place: an idle core that
    /// takes it instead.
    fn steal_idle(&mut self, _occ: &OccTable) -> Steal {
        None
    }

    /// Core `thief` ran dry: a victim queue whose head it takes.
    fn steal(&mut self, _thief: usize, _queues: &[VecDeque<QueuedRequest>]) -> Steal {
        None
    }

    /// Request `idx` joins its queue with `ahead` requests waiting.
    fn arrived(&mut self, _idx: usize, _ahead: usize) {}
}

/// Pool events, 16 bytes each (the calendar queue moves every one of
/// them), so the two-index variants pack them into `u32`s.
enum Ev {
    /// Request (trace index) reaches its steered arrival queue.
    Arrive(u32, u32),
    /// A handed-off request (trace index) lands on its core.
    Deliver(u32, u32),
    /// The core finishes its running slice.
    Done(usize),
    /// The core finishes paying its preemption overhead.
    Free(usize),
    /// Fault plan: the core fails permanently. Never pushed by healthy runs.
    Fail(usize),
}

struct CorePool<'t, P> {
    trace: &'t Trace,
    policy: P,
    shape: Shape,
    running: Vec<Option<QueuedRequest>>,
    /// Handed-off requests waiting on their core.
    local: Vec<VecDeque<QueuedRequest>>,
    /// Arrival queues, one per `shape.domain` cores.
    queues: Vec<VecDeque<QueuedRequest>>,
    /// The arrival queue feeding each core.
    queue_of: Vec<usize>,
    /// Handed-off requests not yet delivered, per core.
    in_flight: Vec<u32>,
    /// Remaining work (ps) of each handed-off request, by trace index.
    handed: Vec<u64>,
    /// Core is paying preemption overhead until cleared.
    stalled: Vec<bool>,
    occ: OccTable,
    /// Whether hand-offs go through one serial dispatcher.
    serial: bool,
    dispatcher_free_at: SimTime,
    result: SystemResult,
}

/// Runs `policy` over `trace`, returning the result and the policy (with
/// whatever it counted).
///
/// # Panics
///
/// Panics if the fault plan is malformed or targets a core the pool lacks,
/// or if a trace or core index does not fit a `u32`.
pub(crate) fn run<P: Policy>(policy: P, trace: &Trace) -> (SystemResult, P) {
    let shape = policy.shape();
    let n = shape.cores;
    shape.faults.validate_for(n);
    assert!(
        u32::try_from(trace.len().max(n)).is_ok(),
        "events pack u32 indices"
    );
    let queues = n.div_ceil(shape.domain);
    let mut queue = EventQueue::new();
    let base_seq = queue.reserve_seqs(trace.len() as u64);
    let requests = trace.requests();
    let (mac_delay, transfer) = (shape.mac_delay, shape.transfer);
    let mut steering = shape.steering.clone().filter(|_| queues > 1);
    let mut rng: StdRng = stream_rng(steering.as_ref().map_or(0, |s| s.1), streams::NIC);
    let mut source = StreamInjector::new(
        trace.len(),
        base_seq,
        |i: usize| requests[i].arrival + mac_delay,
        |i: usize| {
            let req = &requests[i];
            let target = steering
                .as_mut()
                .map_or(0, |(s, _)| s.steer(req.conn, queues, &mut rng));
            let xfer = transfer.map_or(SimDuration::ZERO, |t| t.latency(req.size_bytes));
            let at = req.arrival + mac_delay + xfer;
            (at, Ev::Arrive(i as u32, target as u32))
        },
    );
    let mut pool = CorePool {
        trace,
        policy,
        running: vec![None; n],
        local: vec![VecDeque::new(); n],
        queues: vec![VecDeque::new(); queues],
        queue_of: (0..n).map(|c| c / shape.domain).collect(),
        in_flight: vec![0; n],
        handed: vec![0; trace.len()],
        stalled: vec![false; n],
        occ: OccTable::new(n),
        serial: matches!(shape.handoff, Handoff::Dispatcher(_)),
        dispatcher_free_at: SimTime::ZERO,
        result: SystemResult::with_capacity(trace.len()),
        shape,
    };
    for f in &pool.shape.faults.worker_failures {
        queue.push(f.at, Ev::Fail(f.core));
    }
    run_streamed(&mut pool, &mut queue, &mut source, SimTime::MAX);
    (pool.result, pool.policy)
}

impl<P: Policy> CorePool<'_, P> {
    /// Recomputed occupancy of a live core — the oracle the incremental
    /// [`OccTable`] is checked against in debug builds.
    fn occupancy(&self, core: usize) -> usize {
        self.running[core].map_or(0, |_| 1)
            + self.local[core].len()
            + self.in_flight[core] as usize
            + (self.stalled[core] && self.serial) as usize
    }

    fn start(&mut self, core: usize, qr: QueuedRequest, now: SimTime, q: &mut EventQueue<Ev>) {
        // A straggling core runs its slice slower (wall time inflated) but
        // accomplishes the same nominal work; identity on healthy runs.
        let slice = self
            .shape
            .quantum
            .map_or(qr.remaining, |qt| qr.remaining.min(qt));
        let wall = self.shape.faults.inflate(core, now, slice);
        self.running[core] = Some(qr);
        q.push(now + wall, Ev::Done(core));
    }

    fn start_if_idle(&mut self, core: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        if self.running[core].is_some() || self.stalled[core] {
            return;
        }
        if let Some(qr) = self.local[core].pop_front() {
            self.start(core, qr, now, q);
        }
    }

    /// The least-occupied live core under the bound among those queue `d`
    /// feeds, lowest index first.
    fn pick(&self, d: usize) -> Option<usize> {
        let (domain, bound) = (self.shape.domain, self.shape.bound);
        let cores = d * domain..((d + 1) * domain).min(self.shape.cores);
        let core = self.occ.argmin_under(cores.clone(), bound);
        debug_assert_eq!(
            core,
            cores
                .filter(|&c| !self.occ.is_dead(c) && self.occupancy(c) < bound as usize)
                .min_by_key(|&c| self.occupancy(c))
        );
        core
    }

    /// Gives `qr` to `core`, which counts it from now on.
    fn hand_off(&mut self, core: usize, qr: QueuedRequest, now: SimTime, q: &mut EventQueue<Ev>) {
        self.occ.incr(core);
        let at = match self.shape.handoff {
            Handoff::Inline => return self.start(core, qr, now, q),
            Handoff::Transfer(t) => now + t.latency(self.trace.requests()[qr.idx].size_bytes),
            Handoff::Dispatcher(cost) => now + cost,
        };
        self.in_flight[core] += 1;
        self.handed[qr.idx] = qr.remaining.as_ps();
        q.push(at, Ev::Deliver(core as u32, qr.idx as u32));
        if self.serial {
            self.dispatcher_free_at = at; // free again as the hand-off lands
        }
    }

    /// Hands queue `d`'s head to picked cores until the queue drains, no
    /// core qualifies, or the serial dispatcher has handed one off.
    fn drain(&mut self, d: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        while !self.queues[d].is_empty() && self.dispatcher_free_at <= now {
            let Some(core) = self.pick(d) else {
                return;
            };
            let qr = self.queues[d].pop_front().expect("non-empty queue");
            self.hand_off(core, qr, now, q);
            if self.serial {
                return;
            }
        }
    }

    fn arrive(&mut self, idx: usize, d: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        let req = &self.trace.requests()[idx];
        let stack = self.shape.stack.map(|s| (s.rx(req.size_bytes), s.tx(64)));
        let (rx, tx) = stack.unwrap_or_default();
        let mut qr = QueuedRequest::new(idx, on_core_cost(rx, tx, req, self.shape.overhead), now);
        let waiting = self.queues[d].len();
        self.policy.arrived(idx, waiting);
        if waiting == 0 && self.dispatcher_free_at <= now {
            if let Some(core) = self.pick(d) {
                return self.hand_off(core, qr, now, q);
            }
        }
        if let Some((idle, cost)) = self.policy.steal_idle(&self.occ) {
            qr.remaining += cost;
            return self.hand_off(idle, qr, now, q);
        }
        // Nowhere to go (a request steered at a dead core's own queue waits
        // there forever), unless a serial dispatcher left cores idle.
        self.queues[d].push_back(qr);
        if waiting > 0 && self.serial {
            self.drain(d, now, q);
        }
    }

    fn done(&mut self, core: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        let mut qr = self.running[core].take().expect("Done on an idle core");
        let d = self.queue_of[core];
        if let Some(qt) = self.shape.quantum.filter(|&qt| qr.remaining > qt) {
            // Preempted: requeue and pay the context switch.
            qr.remaining -= qt;
            self.queues[d].push_back(qr);
            self.stalled[core] = true;
            q.push(now + self.shape.preempt_overhead, Ev::Free(core));
            if !self.serial {
                self.occ.decr(core);
                self.drain(d, now, q);
            }
            return;
        }
        self.occ.decr(core);
        let req = &self.trace.requests()[qr.idx];
        self.result.record(Completion {
            id: req.id,
            arrival: req.arrival,
            finish: now,
            core: core + self.shape.first_core,
            migrated: qr.migrated,
        });
        if let Some(next) = self.local[core].pop_front() {
            self.start(core, next, now, q);
        }
        if self.serial {
            self.drain(d, now, q);
        } else if let Some(head) = self.queues[d].pop_front() {
            // The only core under the bound is the one just freed.
            debug_assert_eq!(self.pick(d), Some(core));
            self.hand_off(core, head, now, q);
        } else if self.running[core].is_none() {
            if let Some((victim, cost)) = self.policy.steal(core, &self.queues) {
                let mut next = self.queues[victim].pop_front().expect("empty victim");
                next.remaining += cost;
                next.migrated = true;
                self.hand_off(core, next, now, q);
            }
        }
    }
}

impl<P: Policy> World for CorePool<'_, P> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
        match ev {
            Ev::Arrive(idx, d) => self.arrive(idx as usize, d as usize, now, q),
            Ev::Deliver(core, idx) => {
                let (core, idx) = (core as usize, idx as usize);
                self.in_flight[core] -= 1;
                // A hand-off to a core that died meanwhile is lost.
                if !self.occ.is_dead(core) {
                    let qr = QueuedRequest::new(idx, SimDuration::from_ps(self.handed[idx]), now);
                    self.local[core].push_back(qr);
                    self.start_if_idle(core, now, q);
                }
                if self.serial {
                    self.drain(self.queue_of[core], now, q); // the dispatcher is free
                }
            }
            // Stale completions and stalls from before a core's death are
            // dropped.
            Ev::Done(core) if !self.occ.is_dead(core) => self.done(core, now, q),
            Ev::Free(core) if !self.occ.is_dead(core) => {
                self.stalled[core] = false;
                if self.serial {
                    self.occ.decr(core); // the reservation ends
                }
                self.start_if_idle(core, now, q);
                self.drain(self.queue_of[core], now, q);
            }
            Ev::Done(_) | Ev::Free(_) => {}
            Ev::Fail(core) => {
                // Fail-stop: the running request and the local queue are
                // lost; a shared queue routes around the core from now on.
                self.occ.mark_dead(core);
                self.running[core] = None;
                self.local[core].clear();
                self.drain(self.queue_of[core], now, q);
            }
        }
    }
}
