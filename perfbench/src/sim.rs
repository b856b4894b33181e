//! Simulated-time metrics of one run and the output checks they rest on.
//!
//! Everything here is in simulated time and deterministic for a fixed
//! seed: statistics start from empty queues, so the cold-start ramp is
//! included.

use crate::workloads::Outcome;
use altocumulus::rack::RackConfig;
use simcore::trace::{fnv1a64, fnv1a64_fold};
use workload::{Completion, Trace};

/// A request meets its SLO when its latency is at most this multiple of
/// its own service time (the paper's Fig. 13 SLO). A lost request misses
/// it.
pub const SLO_MULTIPLE: u64 = 10;

/// Simulated end-to-end statistics, pooled over every trace of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Requests offered.
    pub offered: usize,
    /// Requests that completed (each counted once).
    pub completed: usize,
    /// Mean latency of completed requests, µs.
    pub mean_us: f64,
    /// Latency percentiles over completed requests: 99th, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// 99th percentile of latency / own service time.
    pub slowdown_p99: f64,
    /// Share of offered requests that completed within the SLO, %.
    pub slo_met_pct: f64,
    /// Share of offered requests that completed, %.
    pub completed_pct: f64,
}

impl SimMetrics {
    /// Requests offered but never completed.
    pub fn lost(&self) -> usize {
        self.offered - self.completed
    }
}

/// Nearest-rank quantile of an ascending slice.
fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Accumulates completions of one or more traces into [`SimMetrics`].
#[derive(Debug, Default)]
pub struct Pool {
    offered: usize,
    met: usize,
    lat_ps: Vec<u64>,
    slowdown: Vec<f64>,
}

impl Pool {
    /// An empty pool with room for `requests` completions, so that its
    /// growth does not add to the process's peak memory.
    pub fn with_capacity(requests: usize) -> Pool {
        Pool {
            lat_ps: Vec::with_capacity(requests),
            slowdown: Vec::with_capacity(requests),
            ..Pool::default()
        }
    }

    /// Adds the completions of one simulation of `trace`, checking that
    /// every request completes at most once and that no latency is shorter
    /// than the request's own service time. Returns a digest of every
    /// completion record, in completion order.
    pub fn add(&mut self, trace: &Trace, completions: &[Completion]) -> Result<u64, String> {
        let offered = trace.len();
        let mut seen = vec![false; offered];
        let mut digest = fnv1a64(&(completions.len() as u64).to_le_bytes());
        for c in completions {
            let id = c.id.0 as usize;
            let req = trace
                .requests()
                .get(id)
                .ok_or_else(|| format!("completion names request {id} of {offered}"))?;
            if std::mem::replace(&mut seen[id], true) {
                return Err(format!("request {id} completed twice"));
            }
            let lat = c.latency().as_ps();
            let svc = req.service.as_ps();
            if lat < svc {
                return Err(format!("request {id}: latency {lat} ps < service {svc} ps"));
            }
            if lat <= SLO_MULTIPLE * svc {
                self.met += 1;
            }
            self.lat_ps.push(lat);
            self.slowdown.push(lat as f64 / svc.max(1) as f64);
            for word in [
                id as u64,
                c.arrival.as_ps(),
                c.finish.as_ps(),
                c.core as u64,
                c.migrated as u64,
            ] {
                digest = fnv1a64_fold(digest, word);
            }
        }
        self.offered += offered;
        Ok(digest)
    }

    /// The pooled metrics.
    pub fn finish(mut self) -> Result<SimMetrics, String> {
        if self.lat_ps.is_empty() {
            return Err("no request completed".into());
        }
        self.lat_ps.sort_unstable();
        self.slowdown.sort_unstable_by(f64::total_cmp);
        let us = |ps: u64| ps as f64 / 1e6;
        let completed = self.lat_ps.len();
        let pct = |n: usize| 100.0 * n as f64 / self.offered as f64;
        Ok(SimMetrics {
            offered: self.offered,
            completed,
            mean_us: self.lat_ps.iter().map(|&l| l as f64).sum::<f64>() / completed as f64 / 1e6,
            p99_us: us(quantile(&self.lat_ps, 0.99)),
            p999_us: us(quantile(&self.lat_ps, 0.999)),
            slowdown_p99: quantile(&self.slowdown, 0.99),
            slo_met_pct: pct(self.met),
            completed_pct: pct(completed),
        })
    }
}

/// Checks one simulation of `trace` on its own and returns its digest.
pub fn digest(trace: &Trace, completions: &[Completion]) -> Result<u64, String> {
    Pool::default().add(trace, completions)
}

/// Request conservation of a rack run: every send the routing pass made
/// landed on exactly one server, was lost, or was swallowed and retried;
/// every server's credited completions plus its retried and lost requests
/// equal what it was assigned; and completed + lost == offered.
pub fn check_rack_conservation(cfg: &RackConfig, outcome: &Outcome) -> Result<(), String> {
    let Outcome::Rack(r) = outcome else {
        return Ok(());
    };
    if cfg.deaths.len() > 1 {
        return Err("death retries are attributed to a single dying server".into());
    }
    let assigned: usize = r.per_server.iter().map(|s| s.assigned).sum();
    let sends = r.offered + r.routing.death_retries as usize;
    if assigned + r.routing.lost as usize != sends {
        return Err(format!(
            "routing: assigned {assigned} + lost {} != offered {} + death retries {}",
            r.routing.lost, r.offered, r.routing.death_retries
        ));
    }
    let mut lost = r.routing.lost as usize;
    for (s, run) in r.per_server.iter().enumerate() {
        let retried = if cfg.death_of(s).is_some() {
            r.routing.death_retries as usize
        } else {
            0
        };
        let server_lost = run
            .assigned
            .checked_sub(run.completed + retried)
            .ok_or_else(|| {
                format!(
                    "{}: completed {} + retried {retried} > assigned {}",
                    run.label, run.completed, run.assigned
                )
            })?;
        lost += server_lost;
    }
    let completed = r.system.completions.len();
    if completed + lost != r.offered {
        return Err(format!(
            "completed {completed} + lost {lost} != offered {}",
            r.offered
        ));
    }
    Ok(())
}
