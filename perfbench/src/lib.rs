//! Benchmark of the Altocumulus simulator: end-to-end metrics from untimed
//! and timed runs of three workloads, and per-layer metrics from a traced
//! run that times each call into a layer's public functions from outside.
//!
//! Two time bases are reported, and every metric names its own: **host**
//! time is what the simulator takes on the machine, **simulated** time is
//! what the modelled hardware would take. The model is not validated
//! against hardware, so no error figure is reported.

pub mod layers;
pub mod metric;
pub mod sim;
pub mod spans;
pub mod workloads;
