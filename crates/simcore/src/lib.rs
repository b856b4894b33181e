//! # simcore — deterministic nanosecond-scale discrete-event simulation
//!
//! The simulation substrate for the Altocumulus reproduction. The paper's
//! evaluation ran on a Pin/zsim-derived cycle-level simulator; this crate
//! provides the equivalent foundation as a deterministic discrete-event
//! engine with picosecond-resolution virtual time:
//!
//! - [`time`]: [`time::SimTime`] / [`time::SimDuration`] newtypes.
//! - [`event`]: a deterministic [`event::EventQueue`] plus the
//!   [`event::World`] trait and [`event::run`] loop.
//! - [`faults`]: seeded, deterministic fault-injection plans.
//! - [`metrics`]: HDR-style latency histograms, quantiles and SLO accounting.
//! - [`rng`]: per-component deterministic RNG streams, with
//!   [`rng::BatchedRng`] draw batching.
//! - [`slab`]: free-list arena with generation-checked handles for
//!   keeping event payloads out of the event queue.
//! - [`alloc`]: a counting global allocator for allocation-budget tests.
//! - [`parallel`]: deterministic thread fan-out for parameter sweeps.
//! - [`report`]: aligned plain-text tables for experiment output.
//! - [`telemetry`]: request-lifecycle spans, time-series probes and
//!   Perfetto/JSONL export behind a zero-cost [`telemetry::TelemetrySink`].
//! - [`trace`]: versioned `TRACE/1.0` run artifacts — a recording sink,
//!   schema validation, and first-divergence replay diffing.
//!
//! # Examples
//!
//! A tiny M/D/1 queue simulated to completion:
//!
//! ```
//! use simcore::event::{run, EventQueue, World};
//! use simcore::metrics::LatencyHistogram;
//! use simcore::time::{SimDuration, SimTime};
//!
//! enum Ev { Arrival(u32), Done }
//!
//! struct Mdo1 {
//!     busy_until: SimTime,
//!     service: SimDuration,
//!     latencies: LatencyHistogram,
//! }
//!
//! impl World for Mdo1 {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
//!         match ev {
//!             Ev::Arrival(_) => {
//!                 let start = self.busy_until.max(now);
//!                 let end = start + self.service;
//!                 self.busy_until = end;
//!                 self.latencies.record(end - now);
//!                 q.push(end, Ev::Done);
//!             }
//!             Ev::Done => {}
//!         }
//!     }
//! }
//!
//! let mut world = Mdo1 {
//!     busy_until: SimTime::ZERO,
//!     service: SimDuration::from_ns(100),
//!     latencies: LatencyHistogram::new(),
//! };
//! let mut queue = EventQueue::new();
//! for i in 0..10 {
//!     queue.push(SimTime::from_ns(i * 50), Ev::Arrival(i as u32));
//! }
//! run(&mut world, &mut queue, SimTime::MAX);
//! assert_eq!(world.latencies.count(), 10);
//! ```

#![warn(missing_docs)]
// Deny rather than forbid: the `alloc` module needs one delegating
// GlobalAlloc impl (see its module docs); everything else stays safe.
#![deny(unsafe_code)]

pub mod alloc;
pub mod event;
pub mod faults;
pub mod metrics;
pub mod parallel;
pub mod report;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use event::{
    run, run_streamed, BinaryHeapQueue, EventQueue, EventSource, RunSummary, StreamInjector, World,
};
pub use faults::{FaultPlan, NocDecision, NocFaultRng};
pub use metrics::{LatencyHistogram, LatencySummary, SloTracker};
pub use parallel::{default_threads, parallel_map, seeded_map};
pub use stats::{batch_means_ci, MeanCi};
pub use telemetry::{NullSink, Telemetry, TelemetrySink};
pub use time::{SimDuration, SimTime};
pub use trace::{Granularity, Recorder};
