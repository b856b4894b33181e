//! Online SLO-violation prediction (paper §IV + Fig. 5 online path).
//!
//! Each manager estimates the current offered load from its arrival counter,
//! then evaluates the calibrated threshold model `E[T̂]` for its worker group.
//! The threshold is recomputed every period from the *measured* load, which
//! is what makes Altocumulus adapt to bursty traffic where statically-tuned
//! hardware schedulers cannot.

use queueing::threshold::ThresholdModel;
use simcore::time::SimDuration;

/// How the migration threshold is chosen each period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// The calibrated linear model of Eq. 2 (the paper's design).
    Model(ThresholdModel),
    /// A fixed queue length (ablation).
    Fixed(usize),
    /// The naive upper bound `k·L + 1` (ablation; maximal effectiveness,
    /// minimal accuracy).
    NaiveUpperBound {
        /// SLO-to-mean-service ratio `L`.
        slo_ratio: f64,
    },
}

impl ThresholdPolicy {
    /// Evaluates the threshold for a group with `workers` cores at measured
    /// offered load `offered` (Erlangs).
    pub fn threshold(&self, workers: usize, offered: f64) -> usize {
        match *self {
            ThresholdPolicy::Model(m) => m.threshold(workers, offered),
            ThresholdPolicy::Fixed(t) => t,
            ThresholdPolicy::NaiveUpperBound { slo_ratio } => {
                queueing::naive_upper_bound(workers, slo_ratio)
            }
        }
    }

    /// A load-independent lower bound on [`threshold`](Self::threshold):
    /// `floor(workers) <= threshold(workers, x)` for every offered load `x`,
    /// overload included.
    ///
    /// The runtime only ever compares the threshold against the manager's
    /// own queue length (`len > T`), so a tick whose queue is at most the
    /// floor can pass the floor instead and skip the Erlang-B recurrence
    /// without changing a single decision.
    pub fn floor(&self, workers: usize) -> usize {
        match *self {
            // `ThresholdModel::threshold` rounds and floors at 1, or
            // saturates at `usize::MAX` when overloaded.
            ThresholdPolicy::Model(_) => 1,
            ThresholdPolicy::Fixed(t) => t,
            ThresholdPolicy::NaiveUpperBound { slo_ratio } => {
                queueing::naive_upper_bound(workers, slo_ratio)
            }
        }
    }

    /// [`threshold`](Self::threshold) as the runtime reads it: exact
    /// whenever `own_len` exceeds [`floor`](Self::floor), and the floor
    /// otherwise — indistinguishable to every `own_len > T` comparison, and
    /// O(1) on the idle ticks that dominate a lightly loaded mesh.
    pub fn threshold_for(&self, workers: usize, offered: f64, own_len: usize) -> usize {
        let floor = self.floor(workers);
        if own_len > floor {
            self.threshold(workers, offered)
        } else {
            floor
        }
    }
}

/// Exponentially-weighted estimator of the local offered load.
///
/// Every period the runtime feeds it the number of arrivals since the last
/// tick; it maintains a smoothed rate and converts it to Erlangs using the
/// (known, offline-profiled) mean service time.
#[derive(Debug, Clone)]
pub struct LoadEstimator {
    mean_service: SimDuration,
    /// EWMA smoothing factor for the per-period rate.
    alpha: f64,
    rate_per_sec: f64,
    primed: bool,
}

impl LoadEstimator {
    /// Creates an estimator. `mean_service` comes from the offline profile
    /// (µ in Fig. 5); `alpha` is the EWMA weight of the newest sample.
    ///
    /// # Panics
    ///
    /// Panics if `mean_service` is zero or `alpha` outside `(0, 1]`.
    pub fn new(mean_service: SimDuration, alpha: f64) -> Self {
        assert!(
            !mean_service.is_zero(),
            "mean service time must be positive"
        );
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        LoadEstimator {
            mean_service,
            alpha,
            rate_per_sec: 0.0,
            primed: false,
        }
    }

    /// Records `arrivals` observed during the elapsed `period` and updates
    /// the smoothed rate.
    pub fn observe(&mut self, arrivals: u64, period: SimDuration) {
        let secs = period.as_secs_f64();
        if secs <= 0.0 {
            return;
        }
        let sample = arrivals as f64 / secs;
        if self.primed {
            self.rate_per_sec = (1.0 - self.alpha) * self.rate_per_sec + self.alpha * sample;
        } else {
            self.rate_per_sec = sample;
            self.primed = true;
        }
    }

    /// Fast-forwards the estimator across `ticks` idle periods, exactly as
    /// if [`observe`](Self::observe)`(0, period)` had been called `ticks`
    /// times.
    ///
    /// Deliberately implemented as the literal loop of EWMA multiplies
    /// rather than the closed form `rate · (1−α)^k`: `powf` rounds once
    /// while the loop rounds per step, and the idle-tick fast-forward in
    /// the system model needs the skipped ticks to leave the estimator
    /// *bit-identical* to having run them. Idle stretches are bounded by
    /// the trace's arrival gaps divided by the period, so the loop stays
    /// short in practice.
    pub fn fast_forward_idle(&mut self, ticks: u64, period: SimDuration) {
        for _ in 0..ticks {
            self.observe(0, period);
        }
    }

    /// Smoothed arrival rate (requests/second).
    pub fn rate_per_sec(&self) -> f64 {
        self.rate_per_sec
    }

    /// Offered load in Erlangs: `A = λ · E[S]`.
    pub fn offered_erlangs(&self) -> f64 {
        self.rate_per_sec * self.mean_service.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use queueing::erlang::expected_queue_len;

    #[test]
    fn estimator_converges_to_steady_rate() {
        let mut e = LoadEstimator::new(SimDuration::from_ns(850), 0.2);
        // 2 arrivals every 200ns = 10 GRPS... use realistic: 1 arrival per
        // 200ns period = 5 MRPS.
        for _ in 0..100 {
            e.observe(1, SimDuration::from_ns(200));
        }
        assert!((e.rate_per_sec() - 5e6).abs() / 5e6 < 1e-9);
        // A = 5e6 * 850e-9 = 4.25 Erlangs.
        assert!((e.offered_erlangs() - 4.25).abs() < 1e-9);
    }

    #[test]
    fn estimator_tracks_rate_changes() {
        let mut e = LoadEstimator::new(SimDuration::from_us(1), 0.3);
        for _ in 0..50 {
            e.observe(2, SimDuration::from_us(1));
        }
        let before = e.rate_per_sec();
        for _ in 0..50 {
            e.observe(6, SimDuration::from_us(1));
        }
        let after = e.rate_per_sec();
        assert!(after > before * 2.0, "EWMA should follow the burst");
    }

    #[test]
    fn smoothing_dampens_noise() {
        let mut smooth = LoadEstimator::new(SimDuration::from_us(1), 0.05);
        let mut jumpy = LoadEstimator::new(SimDuration::from_us(1), 1.0);
        let samples = [0u64, 8, 0, 8, 0, 8, 0, 8];
        for &s in &samples {
            smooth.observe(s, SimDuration::from_us(1));
            jumpy.observe(s, SimDuration::from_us(1));
        }
        // Jumpy ends at the last sample; smooth stays near the start value's
        // neighbourhood (it was primed with 0, climbing slowly).
        assert_eq!(jumpy.rate_per_sec(), 8e6);
        assert!(smooth.rate_per_sec() < 4e6);
    }

    #[test]
    fn fast_forward_idle_is_bit_identical_to_observed_zeros() {
        // The quiescence contract of the idle-tick fast-forward: k skipped
        // ticks leave the estimator bit-identical to k real observe(0, ·)
        // calls, for alphas whose (1-α) multiplies round at every step.
        let period = SimDuration::from_ns(200);
        for alpha in [0.2, 0.05, 0.37, 1.0] {
            for k in [0u64, 1, 2, 7, 100, 1000] {
                let mut looped = LoadEstimator::new(SimDuration::from_ns(850), alpha);
                let mut skipped = looped.clone();
                // Prime both with some traffic so the decay path is active.
                for _ in 0..5 {
                    looped.observe(3, period);
                    skipped.observe(3, period);
                }
                for _ in 0..k {
                    looped.observe(0, period);
                }
                skipped.fast_forward_idle(k, period);
                assert_eq!(
                    looped.rate_per_sec().to_bits(),
                    skipped.rate_per_sec().to_bits(),
                    "alpha={alpha} k={k}: fast-forward diverged from real ticks"
                );
            }
        }
    }

    #[test]
    fn policy_model_matches_threshold_model() {
        let m = ThresholdModel::paper_fixed();
        let p = ThresholdPolicy::Model(m);
        assert_eq!(p.threshold(15, 15.0 * 0.97), m.threshold(15, 15.0 * 0.97));
    }

    #[test]
    fn policy_fixed_and_naive() {
        assert_eq!(ThresholdPolicy::Fixed(42).threshold(16, 15.0), 42);
        assert_eq!(
            ThresholdPolicy::NaiveUpperBound { slo_ratio: 10.0 }.threshold(64, 60.0),
            641
        );
    }

    fn any_policy() -> impl proptest::strategy::Strategy<Value = ThresholdPolicy> {
        use proptest::prelude::*;
        prop_oneof![
            Just(ThresholdPolicy::Model(ThresholdModel::paper_fixed())),
            Just(ThresholdPolicy::Model(ThresholdModel::identity())),
            (-2.0f64..3.0, -10.0f64..10.0, -2.0f64..3.0, -10.0f64..10.0)
                .prop_map(|(a, b, c, d)| ThresholdPolicy::Model(ThresholdModel { a, b, c, d })),
            (0usize..1000).prop_map(ThresholdPolicy::Fixed),
            (0.0f64..20.0).prop_map(|slo_ratio| ThresholdPolicy::NaiveUpperBound { slo_ratio }),
        ]
    }

    proptest::proptest! {
        /// The floor is a lower bound on the threshold at every load from
        /// idle to twice the group's capacity (overload included), so a
        /// queue at or below it compares identically against either.
        #[test]
        fn floor_bounds_threshold_from_below(
            policy in any_policy(),
            workers in 1usize..64,
            // Idle, exactly at capacity and twice capacity pinned, plus
            // everything between.
            load_frac in proptest::prop_oneof![
                proptest::strategy::Just(0.0f64),
                proptest::strategy::Just(1.0f64),
                proptest::strategy::Just(2.0f64),
                0.0f64..2.0,
            ],
            random_len in 0usize..2000,
        ) {
            let offered = workers as f64 * load_frac;
            let floor = policy.floor(workers);
            let exact = policy.threshold(workers, offered);
            proptest::prop_assert!(exact >= floor, "{policy:?} w={workers} x={offered}");
            // Queue lengths on both sides of the floor and of the exact
            // threshold, where a wrong cut-over would flip a comparison.
            let lens = [
                0,
                floor.saturating_sub(1),
                floor,
                floor.saturating_add(1),
                exact,
                exact.saturating_add(1),
                random_len,
            ];
            for own_len in lens {
                let lazy = policy.threshold_for(workers, offered, own_len);
                proptest::prop_assert_eq!(own_len > lazy, own_len > exact);
                if own_len > floor {
                    proptest::prop_assert_eq!(lazy, exact);
                }
            }
        }
    }

    #[test]
    fn floor_is_attained() {
        // Each floor is the tightest load-independent bound: idle load
        // reaches it.
        let m = ThresholdPolicy::Model(ThresholdModel::paper_fixed());
        assert_eq!(m.floor(16), 1);
        assert_eq!(m.threshold(16, 0.0), 1);
        assert_eq!(ThresholdPolicy::Fixed(7).floor(16), 7);
        let naive = ThresholdPolicy::NaiveUpperBound { slo_ratio: 10.0 };
        assert_eq!(naive.floor(64), naive.threshold(64, 0.0));
    }

    #[test]
    fn model_threshold_scales_with_measured_load() {
        let p = ThresholdPolicy::Model(ThresholdModel::identity());
        let t_low = p.threshold(15, 15.0 * 0.80);
        let t_high = p.threshold(15, 15.0 * 0.99);
        assert!(t_high > t_low);
        // Cross-check one value against Erlang-C directly.
        let expect = expected_queue_len(15, 15.0 * 0.99).round() as usize;
        assert_eq!(p.threshold(15, 15.0 * 0.99), expect.max(1));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn estimator_rejects_bad_alpha() {
        LoadEstimator::new(SimDuration::from_us(1), 0.0);
    }
}
