//! Analytic service timelines for worker-plane event elision.
//!
//! A [`Timeline`] holds events whose future is *locally determined* —
//! service completions, descriptor deliveries, serialized manager ops
//! whose timing is fixed the moment they are scheduled — so an engine can
//! keep them out of its main [`EventQueue`](crate::event) entirely while
//! preserving the exact global execution order: every entry still carries
//! a sequence number reserved from the main queue
//! ([`EventQueue::reserve_seqs`](crate::event::EventQueue::reserve_seqs))
//! at the precise instant the per-event engine would have pushed it, so
//! merging the timeline head with the main-queue head by `(time, seq)`
//! replays the per-event order bit-for-bit — ties included.
//!
//! # Structure
//!
//! The timeline is a *lane merge*, not one big heap. Each lane is any
//! stream of events scheduled almost-chronologically: a `VecDeque` kept
//! sorted by appending, with the rare out-of-order schedule handled by a
//! backwards scan from the tail. Callers pick the partition that makes
//! their lanes monotone — per *producer* (a worker can only be given new
//! work after finishing old work) or, better, per event *class* when each
//! class's delay from the scheduling instant is constant or tightly
//! clustered (a descriptor delivery is `now + transfer latency`, so the
//! class lane is a pure FIFO; completions are `now + service`, sorted up
//! to the service-time spread). A `BinaryHeap` of 24-byte
//! `(time, seq, lane)` keys merges the lane heads, with lazy
//! invalidation: a key is acted on only if it still matches its lane's
//! head — `(time, seq)` is globally unique — and stale keys (superseded
//! by a front-of-lane insert) are dropped on contact. With a handful of
//! class lanes the merge frontier is a couple of compares per pop —
//! far cheaper than running every event through a full priority queue.
//!
//! [`WorkerPlane`] selects between the batched engine and the per-event
//! differential oracle; [`worker_plane`] reads the `WORKER_PLANE`
//! environment knob.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Which engine drives the worker plane (request lifecycle events) of a
/// simulation run.
///
/// Both engines produce byte-identical observable output — completions,
/// stats, telemetry spans, RNG draw counts and the virtual
/// `peak_event_queue` ledger; they differ only in how many events flow
/// through the main queue (and therefore in wall-clock time and the
/// reported `events` count). `Elided` is the default; `EventDriven` is
/// kept as the differential oracle, exactly like the manager plane's
/// `ControlPlane::EventDriven`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerPlane {
    /// Worker-plane events (deliveries, completions, serialized manager
    /// ops) are held on analytic [`Timeline`] lanes and lazily
    /// materialized in exact `(time, seq)` order, never entering the main
    /// event queue.
    #[default]
    Elided,
    /// Every worker-plane event is a discrete event in the main queue —
    /// the pre-elision path, kept as the differential oracle.
    EventDriven,
}

/// Parses one `WORKER_PLANE` value (case-insensitive, surrounding
/// whitespace ignored): `elided`, or `event_driven` / `event-driven` /
/// `eventdriven`. Anything else is `None`.
pub fn parse_worker_plane(value: &str) -> Option<WorkerPlane> {
    match value.trim().to_ascii_lowercase().as_str() {
        "elided" => Some(WorkerPlane::Elided),
        "event_driven" | "event-driven" | "eventdriven" => Some(WorkerPlane::EventDriven),
        _ => None,
    }
}

/// Resolves the effective worker plane: the `WORKER_PLANE` environment
/// variable when set, else `default`.
///
/// Note this only selects between byte-identical engines; the downgrade
/// the engines themselves require (an active fault plan forces the
/// per-event oracle) is applied *after* this resolution and cannot be
/// overridden.
///
/// # Panics
///
/// Panics if `WORKER_PLANE` is set to a value [`parse_worker_plane`]
/// rejects: a typo must not silently run the default engine, or a gate
/// that compares the oracle against the default would compare the default
/// against itself.
pub fn worker_plane(default: WorkerPlane) -> WorkerPlane {
    let value = std::env::var_os("WORKER_PLANE").map(|v| v.to_string_lossy().into_owned());
    plane_or_default(value.as_deref(), default)
}

/// [`worker_plane`] over an already-read variable value.
fn plane_or_default(value: Option<&str>, default: WorkerPlane) -> WorkerPlane {
    match value {
        None => default,
        Some(v) => parse_worker_plane(v).unwrap_or_else(|| {
            panic!(
                "WORKER_PLANE={v:?} is not a worker plane; \
                 accepted: elided, event_driven, event-driven, eventdriven"
            )
        }),
    }
}

/// A `(time, seq)`-ordered merge of per-producer event lanes (see the
/// module docs for the structure).
///
/// Deliberately minimal: no dynamic sequence allocation (callers reserve
/// seqs from their main [`EventQueue`](crate::event::EventQueue) so global
/// tie-breaks stay exact), no horizon, no instrumentation. Lanes and the
/// head heap are pre-sized at construction so steady-state push/pop stay
/// allocation-free.
pub struct Timeline<E> {
    lanes: Vec<VecDeque<(SimTime, u64, E)>>,
    /// Merge frontier: `Reverse((time, seq, lane))` keys, at least one
    /// valid key per non-empty lane plus lazily-dropped stale ones.
    heads: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    len: usize,
}

impl<E> Timeline<E> {
    /// An empty timeline with `lanes` producer lanes, each pre-sized for
    /// `per_lane` pending entries.
    pub fn new(lanes: usize, per_lane: usize) -> Self {
        Timeline {
            lanes: (0..lanes)
                .map(|_| VecDeque::with_capacity(per_lane))
                .collect(),
            heads: BinaryHeap::with_capacity(lanes + 16),
            len: 0,
        }
    }

    /// Total number of pending entries across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending entries, retaining capacity.
    pub fn clear(&mut self) {
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.heads.clear();
        self.len = 0;
    }

    /// Schedules `ev` at `(at, seq)` on `lane`. The seq must come from the
    /// same counter as the main queue's (via `reserve_seqs`) for
    /// cross-container ordering to be meaningful.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn push(&mut self, lane: usize, at: SimTime, seq: u64, ev: E) {
        let q = &mut self.lanes[lane];
        // Almost always an append; a short backwards scan covers the rare
        // out-of-order schedule (e.g. a small descriptor overtaking a big
        // one on the same transfer lane).
        let key = (at, seq);
        let mut pos = q.len();
        while pos > 0 && (q[pos - 1].0, q[pos - 1].1) > key {
            pos -= 1;
        }
        if pos == q.len() {
            q.push_back((at, seq, ev));
        } else {
            q.insert(pos, (at, seq, ev));
        }
        if pos == 0 {
            // New lane head: publish its key (any previous key for this
            // lane is now stale and will be dropped lazily).
            self.heads.push(Reverse((at, seq, lane as u32)));
        }
        self.len += 1;
    }

    /// The `(time, seq)` rank of the earliest pending entry. Mutable
    /// because stale merge keys are discarded on contact.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        loop {
            let &Reverse((t, s, lane)) = self.heads.peek()?;
            match self.lanes[lane as usize].front() {
                Some(&(ht, hs, _)) if (ht, hs) == (t, s) => return Some((t, s)),
                _ => {
                    self.heads.pop();
                }
            }
        }
    }

    /// Removes and returns the earliest pending entry.
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        loop {
            let Reverse((t, s, lane)) = self.heads.pop()?;
            let q = &mut self.lanes[lane as usize];
            let valid = matches!(q.front(), Some(&(ht, hs, _)) if (ht, hs) == (t, s));
            if !valid {
                continue; // stale key, superseded by a front insert
            }
            let entry = q.pop_front().expect("validated non-empty");
            if let Some(&(nt, ns, _)) = q.front() {
                self.heads.push(Reverse((nt, ns, lane)));
            }
            self.len -= 1;
            return Some(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn parses_every_accepted_worker_plane_spelling() {
        for v in ["elided", "ELIDED", " Elided\n"] {
            assert_eq!(parse_worker_plane(v), Some(WorkerPlane::Elided), "{v:?}");
        }
        for v in [
            "event_driven",
            "event-driven",
            "eventdriven",
            "Event_Driven ",
        ] {
            assert_eq!(
                parse_worker_plane(v),
                Some(WorkerPlane::EventDriven),
                "{v:?}"
            );
        }
        for v in ["oracle", "", "event driven", "elide"] {
            assert_eq!(parse_worker_plane(v), None, "{v:?}");
        }
    }

    #[test]
    fn unset_worker_plane_keeps_the_default() {
        for d in [WorkerPlane::Elided, WorkerPlane::EventDriven] {
            assert_eq!(plane_or_default(None, d), d);
        }
        assert_eq!(
            plane_or_default(Some("event_driven"), WorkerPlane::Elided),
            WorkerPlane::EventDriven
        );
    }

    #[test]
    #[should_panic(expected = "accepted: elided, event_driven")]
    fn malformed_worker_plane_panics() {
        plane_or_default(Some("oracle"), WorkerPlane::Elided);
    }

    #[test]
    fn pops_in_time_then_seq_order_across_lanes() {
        let mut tl = Timeline::new(3, 2);
        tl.push(0, t(30), 5, "c");
        tl.push(1, t(10), 9, "a");
        tl.push(2, t(30), 2, "b");
        tl.push(1, t(40), 11, "d");
        assert_eq!(tl.len(), 4);
        assert_eq!(tl.peek_key(), Some((t(10), 9)));
        let order: Vec<&str> = std::iter::from_fn(|| tl.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
        assert!(tl.is_empty());
        assert_eq!(tl.pop().map(|(_, _, e)| e), None::<&str>);
    }

    #[test]
    fn seq_breaks_exact_time_ties() {
        let mut tl = Timeline::new(4, 1);
        for (lane, seq) in [7u64, 3, 11, 5].into_iter().enumerate() {
            tl.push(lane, t(100), seq, seq);
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| tl.pop().map(|(_, s, _)| s)).collect();
        assert_eq!(seqs, [3, 5, 7, 11]);
    }

    #[test]
    fn out_of_order_lane_insert_supersedes_head() {
        // A later push that out-ranks the current lane head must win the
        // merge, and the superseded (stale) key must be dropped silently.
        let mut tl = Timeline::new(2, 2);
        tl.push(0, t(50), 4, "late");
        tl.push(0, t(20), 7, "early"); // front insert on lane 0
        tl.push(1, t(30), 1, "mid");
        assert_eq!(tl.peek_key(), Some((t(20), 7)));
        let order: Vec<&str> = std::iter::from_fn(|| tl.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, ["early", "mid", "late"]);
        assert_eq!(tl.len(), 0);
    }

    #[test]
    fn interleaved_push_pop_keeps_merge_exact() {
        // Mirror of the dispatch→deliver→done cadence: pops interleaved
        // with pushes into the lane just popped from.
        let mut tl = Timeline::new(2, 2);
        tl.push(0, t(10), 0, 0u32);
        tl.push(1, t(15), 1, 1);
        assert_eq!(tl.pop().map(|(_, _, e)| e), Some(0));
        tl.push(0, t(12), 2, 2); // same lane, beats lane 1's head
        assert_eq!(tl.pop().map(|(_, _, e)| e), Some(2));
        assert_eq!(tl.pop().map(|(_, _, e)| e), Some(1));
        assert!(tl.is_empty());
    }

    #[test]
    fn clear_retains_nothing() {
        let mut tl = Timeline::new(1, 1);
        tl.push(0, t(1), 0, ());
        tl.clear();
        assert!(tl.is_empty());
        assert_eq!(tl.peek_key(), None);
    }

    #[test]
    fn worker_plane_defaults() {
        assert_eq!(WorkerPlane::default(), WorkerPlane::Elided);
    }
}
