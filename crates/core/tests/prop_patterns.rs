//! Property-based tests for pattern classification and migration planning.

use altocumulus::runtime::patterns::{
    classify, guard_allows, plan_migrations, plan_migrations_into, plan_threshold_only_into,
    Pattern, PlanScratch,
};
use proptest::prelude::*;

proptest! {
    /// Planning never targets the sender itself and never exceeds
    /// `concurrency` distinct destinations.
    #[test]
    fn plan_targets_sane(
        q in proptest::collection::vec(0u32..1000, 2..32),
        me_seed in 0usize..32,
        threshold in 1usize..500,
        bulk in 1usize..64,
        conc_seed in 1usize..64,
    ) {
        let me = me_seed % q.len();
        let concurrency = conc_seed.min(bulk);
        let orders = plan_migrations(me, &q, threshold, bulk, concurrency);
        let mut dsts = std::collections::HashSet::new();
        for o in &orders {
            prop_assert_ne!(o.dst, me, "never migrate to self");
            prop_assert!(o.dst < q.len());
            prop_assert!(o.count >= 1);
            prop_assert!(o.count <= bulk);
            prop_assert!(dsts.insert(o.dst), "duplicate destination {}", o.dst);
        }
    }

    /// Per-order size never exceeds S = max(bulk/concurrency, 1) except for
    /// the threshold trigger which is also capped by bulk.
    #[test]
    fn plan_sizes_bounded(
        q in proptest::collection::vec(0u32..5000, 2..16),
        bulk in 1usize..64,
        conc_seed in 1usize..64,
    ) {
        let concurrency = conc_seed.min(bulk);
        let s = (bulk / concurrency).max(1);
        for me in 0..q.len() {
            for o in plan_migrations(me, &q, usize::MAX, bulk, concurrency) {
                prop_assert!(o.count <= s, "pattern order size {} > S {s}", o.count);
            }
        }
    }

    /// Classification is permutation-invariant (it only looks at sorted
    /// lengths).
    #[test]
    fn classify_permutation_invariant(
        mut q in proptest::collection::vec(0u32..500, 2..16),
        bulk in 1usize..64,
        swap_a in 0usize..16,
        swap_b in 0usize..16,
    ) {
        let before = classify(&q, bulk);
        let (a, b) = (swap_a % q.len(), swap_b % q.len());
        q.swap(a, b);
        prop_assert_eq!(before, classify(&q, bulk));
    }

    /// A Hill never coexists with a Valley verdict, and balanced vectors
    /// yield None.
    #[test]
    fn classify_consistent(q in proptest::collection::vec(0u32..300, 2..16), bulk in 1usize..64) {
        match classify(&q, bulk) {
            None => {
                let max = *q.iter().max().unwrap();
                let min = *q.iter().min().unwrap();
                prop_assert!(max - min < bulk as u32);
            }
            Some(Pattern::Hill) => {
                let mut s = q.clone();
                s.sort_unstable();
                prop_assert!(s[s.len()-1] - s[s.len()-2] >= bulk as u32);
            }
            Some(Pattern::Valley) => {
                let mut s = q.clone();
                s.sort_unstable();
                prop_assert!(s[1] - s[0] >= bulk as u32);
                // Not also a Hill (Hill takes precedence).
                prop_assert!(s[s.len()-1] - s[s.len()-2] < bulk as u32);
            }
            Some(Pattern::Pairing) => {
                let mut s = q.clone();
                s.sort_unstable();
                prop_assert!(s[s.len()-1] - s[0] >= bulk as u32);
            }
        }
    }

    /// The idle-period lemma behind the manager tick's short-circuit: a
    /// manager at or below the threshold plans nothing on a mesh whose
    /// spread is below `bulk`, with or without the pattern roles.
    #[test]
    fn balanced_below_threshold_plans_nothing(
        base in 0u32..5000,
        offsets in proptest::collection::vec(any::<u32>(), 1..64),
        bulk in 1usize..64,
        me_seed in 0usize..64,
        conc_seed in 1usize..64,
        slack in prop_oneof![Just(0usize), 0usize..100, Just(usize::MAX)],
    ) {
        let q: Vec<u32> = offsets.iter().map(|o| base + o % bulk as u32).collect();
        let me = me_seed % q.len();
        let concurrency = conc_seed.min(bulk);
        let threshold = (q[me] as usize).saturating_add(slack);
        let (mut scratch, mut orders) = (PlanScratch::default(), Vec::new());
        plan_migrations_into(me, &q, threshold, bulk, concurrency, &mut scratch, &mut orders);
        prop_assert!(orders.is_empty(), "patterns planned {orders:?}");
        plan_threshold_only_into(me, &q, threshold, bulk, concurrency, &mut scratch, &mut orders);
        prop_assert!(orders.is_empty(), "threshold-only planned {orders:?}");
    }

    /// The guard is antisymmetric-ish: if a migration src->dst is allowed,
    /// the reverse with the same sizes is not.
    #[test]
    fn guard_one_directional(a in 0u32..10_000, b in 0u32..10_000, s in 1usize..64) {
        if guard_allows(a, b, s) {
            prop_assert!(!guard_allows(b, a, s), "guard allowed both directions a={a} b={b} s={s}");
        }
    }

    /// An allowed migration strictly reduces the maximum of the pair.
    #[test]
    fn guard_implies_improvement(a in 0u32..10_000, b in 0u32..10_000, s in 1usize..64) {
        prop_assume!(guard_allows(a, b, s));
        let after_src = a as i64 - s as i64;
        let after_dst = b as i64 + s as i64;
        prop_assert!(after_src.max(after_dst) <= a.max(b) as i64);
    }
}
