//! Mutation-interaction models: what happens when individually-safe
//! mutations are composed.
//!
//! The paper's Fig. 4a shows that compositions of safe mutations decay
//! slowly — "even when 80 safe mutations are applied together, on average,
//! over 50 % of the resulting programs retain their original functionality"
//! — and Fig. 4b shows the resulting repair density is unimodal with a
//! program-specific optimum (48 for gzip; 11–271 across their corpus).
//!
//! Two models reproduce those regularities:
//!
//! * [`InteractionModel::PairwiseConflict`] — each unordered pair of
//!   mutations conflicts independently with probability `p` (deterministic
//!   per pair). Survival of an x-composition is `(1−p)^C(x,2)` in
//!   expectation and the repair density `∝ x·survival(x)` peaks at
//!   `x* ≈ √(1/p) + ½`.
//! * [`InteractionModel::PerMutationDecay`] — each added mutation
//!   independently breaks the composition with probability `q`; survival is
//!   `(1−q)^x` and the repair density `x·(1−q)^x` is exactly the paper's
//!   fitted `a·x·e^(−bx)` form, peaking at `x* ≈ −1/ln(1−q)`.

use mwu_core::rng::{bernoulli_hit, bernoulli_threshold, MixPrefix};
use mwu_core::ThreadArena;
use serde::{Deserialize, Serialize};

use crate::mutation::MutationId;

/// Keyed-hash stream tag of the pairwise conflict draws.
const PAIR_TAG: u64 = 0xC0_4F11C7;
/// Keyed-hash stream tag of the per-mutation decay draws.
const DECAY_TAG: u64 = 0x000D_ECA1;

/// How composed mutations interact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InteractionModel {
    /// Independent pairwise conflicts with per-pair probability `p`.
    PairwiseConflict {
        /// Per-pair conflict probability.
        p: f64,
    },
    /// Each mutation beyond the first breaks the composition independently
    /// with probability `q`.
    PerMutationDecay {
        /// Per-mutation breakage probability.
        q: f64,
    },
}

impl InteractionModel {
    /// Pairwise model tuned so the repair-density optimum lands at
    /// `x_star` composed mutations: `p = 1/x*²`.
    pub fn pairwise_with_optimum(x_star: usize) -> Self {
        assert!(x_star >= 1);
        InteractionModel::PairwiseConflict {
            p: 1.0 / (x_star as f64 * x_star as f64),
        }
    }

    /// Decay model tuned for an optimum at `x_star`: `q = 1 − e^(−1/x*)`.
    pub fn decay_with_optimum(x_star: usize) -> Self {
        assert!(x_star >= 1);
        InteractionModel::PerMutationDecay {
            q: 1.0 - (-1.0 / x_star as f64).exp(),
        }
    }

    /// Does this specific composition survive (retain full required-test
    /// fitness)? Deterministic per (world, composition) under the pairwise
    /// model; deterministic per (world, mutation, cardinality-slot) under
    /// the decay model.
    pub fn composition_survives(&self, world_seed: u64, muts: &[MutationId]) -> bool {
        self.survives(world_seed, muts.iter().map(|m| m.0))
    }

    /// [`Self::composition_survives`] over the ids of a composition, in
    /// composition order.
    ///
    /// The pairwise verdict is "no pair conflicts", which does not depend
    /// on the order the pairs are checked in. So the ids are sorted (in a
    /// per-thread buffer) and each pair `(a, b)`, `a ≤ b`, extends the
    /// prefix that already absorbed `[world_seed, tag, a]`: two
    /// `splitmix64` calls per pair instead of five.
    pub(crate) fn survives(&self, world_seed: u64, ids: impl Iterator<Item = u64>) -> bool {
        match *self {
            InteractionModel::PairwiseConflict { p } => {
                let threshold = bernoulli_threshold(p);
                let base = MixPrefix::new().absorb(world_seed).absorb(PAIR_TAG);
                let mut sorted: Vec<u64> = ThreadArena::with(|a| a.take());
                sorted.extend(ids);
                sorted.sort_unstable();
                let survives = sorted.iter().enumerate().all(|(i, &a)| {
                    let pa = base.absorb(a);
                    sorted[i + 1..]
                        .iter()
                        .all(|&b| !bernoulli_hit(pa.absorb(b).finish(), threshold))
                });
                ThreadArena::with(|a| a.give(sorted));
                survives
            }
            InteractionModel::PerMutationDecay { q } => {
                // Every mutation after the first risks breaking the
                // composition; keyed on the mutation so re-testing the same
                // composition gives the same verdict.
                let threshold = bernoulli_threshold(q);
                let base = MixPrefix::new().absorb(world_seed).absorb(DECAY_TAG);
                ids.skip(1)
                    .all(|id| !bernoulli_hit(base.absorb(id).finish(), threshold))
            }
        }
    }

    /// Expected survival probability of a random x-composition.
    pub fn expected_survival(&self, x: usize) -> f64 {
        match *self {
            InteractionModel::PairwiseConflict { p } => {
                let pairs = (x * x.saturating_sub(1) / 2) as f64;
                (1.0 - p).powf(pairs)
            }
            InteractionModel::PerMutationDecay { q } => (1.0 - q).powf(x.saturating_sub(1) as f64),
        }
    }

    /// Expected repair density of a random x-composition, **unnormalized**:
    /// proportional to (number of mutations carried) × (survival), the
    /// paper's §III-B trade-off between step size and failure rate.
    pub fn repair_density(&self, x: usize) -> f64 {
        x as f64 * self.expected_survival(x)
    }

    /// The x maximizing [`InteractionModel::repair_density`] over `1..=max_x`.
    pub fn density_optimum(&self, max_x: usize) -> usize {
        let mut best = 1;
        let mut best_v = self.repair_density(1);
        for x in 2..=max_x {
            let v = self.repair_density(x);
            if v > best_v {
                best_v = v;
                best = x;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u64]) -> Vec<MutationId> {
        xs.iter().map(|&x| MutationId(x)).collect()
    }

    #[test]
    fn singleton_always_survives() {
        for model in [
            InteractionModel::pairwise_with_optimum(48),
            InteractionModel::decay_with_optimum(48),
        ] {
            assert!(model.composition_survives(1, &ids(&[5])));
            assert!((model.expected_survival(1) - 1.0).abs() < 1e-12);
            assert!(model.composition_survives(1, &[]));
        }
    }

    #[test]
    fn survival_is_deterministic() {
        let m = InteractionModel::pairwise_with_optimum(10);
        let c = ids(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.composition_survives(9, &c), m.composition_survives(9, &c));
    }

    #[test]
    fn pairwise_survival_order_independent() {
        let m = InteractionModel::pairwise_with_optimum(5);
        let a = ids(&[10, 20, 30, 40]);
        let b = ids(&[40, 10, 30, 20]);
        assert_eq!(m.composition_survives(3, &a), m.composition_survives(3, &b));
    }

    #[test]
    fn optimum_lands_where_tuned_pairwise() {
        for target in [11usize, 48, 96, 271] {
            let m = InteractionModel::pairwise_with_optimum(target);
            let opt = m.density_optimum(600);
            assert!(
                opt.abs_diff(target) <= target / 10 + 1,
                "target {target}, got {opt}"
            );
        }
    }

    #[test]
    fn optimum_lands_where_tuned_decay() {
        for target in [11usize, 48, 96] {
            let m = InteractionModel::decay_with_optimum(target);
            let opt = m.density_optimum(600);
            assert!(
                opt.abs_diff(target) <= target / 10 + 1,
                "target {target}, got {opt}"
            );
        }
    }

    #[test]
    fn fig4a_shape_survival_above_half_at_80() {
        // gzip tuning (optimum 48): survival at 80 composed mutations must
        // still be substantial (the paper reports > 50 %; the pairwise model
        // gives ≈ 25 % and the decay model ≈ 19 % — same order, and the
        // qualitative claim "many mutations can be combined safely" holds:
        // compare to untested mutations, where 2 random mutations already
        // break half of programs).
        let m = InteractionModel::pairwise_with_optimum(48);
        let s80 = m.expected_survival(80);
        assert!(s80 > 0.2, "survival at 80: {s80}");
        // Untested mutations at the paper's 30 % safe rate: two of them
        // survive with probability 0.3² = 9 % ≪ s80.
        assert!(s80 > 0.09);
    }

    #[test]
    fn empirical_survival_matches_expected() {
        let m = InteractionModel::pairwise_with_optimum(20);
        let x = 15;
        let trials = 2000;
        let mut survived = 0;
        for t in 0..trials {
            // Fresh random composition per trial (ids spaced to avoid
            // accidental pair reuse).
            let c: Vec<MutationId> = (0..x).map(|i| MutationId(t * 1000 + i * 7 + 1)).collect();
            if m.composition_survives(77, &c) {
                survived += 1;
            }
        }
        let emp = survived as f64 / trials as f64;
        let exp = m.expected_survival(x as usize);
        assert!(
            (emp - exp).abs() < 0.05,
            "empirical {emp} vs expected {exp}"
        );
    }

    #[test]
    fn density_is_unimodal_in_practice() {
        let m = InteractionModel::pairwise_with_optimum(30);
        let d: Vec<f64> = (1..200).map(|x| m.repair_density(x)).collect();
        let peak = m.density_optimum(200) - 1; // index into d
                                               // Non-decreasing before the peak, non-increasing after.
        for w in d[..peak].windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        for w in d[peak..].windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    /// The survival rule as first written: five `splitmix64` calls per
    /// pair through `keyed_bernoulli`, pairs in composition order.
    fn reference_survives(model: &InteractionModel, world_seed: u64, muts: &[MutationId]) -> bool {
        use mwu_core::rng::keyed_bernoulli;
        match *model {
            InteractionModel::PairwiseConflict { p } => {
                for i in 0..muts.len() {
                    for j in (i + 1)..muts.len() {
                        let (a, b) = if muts[i].0 <= muts[j].0 {
                            (muts[i].0, muts[j].0)
                        } else {
                            (muts[j].0, muts[i].0)
                        };
                        if keyed_bernoulli(p, &[world_seed, 0xC0_4F11C7, a, b]) {
                            return false;
                        }
                    }
                }
                true
            }
            InteractionModel::PerMutationDecay { q } => muts
                .iter()
                .skip(1)
                .all(|m| !keyed_bernoulli(q, &[world_seed, 0x000D_ECA1, m.0])),
        }
    }

    /// Both models at every catalog optimum: the pairwise model with the
    /// catalog's own `p = 1/x*²` and the decay model tuned to the same x*.
    fn catalog_models() -> Vec<InteractionModel> {
        crate::BugScenario::catalog_all()
            .iter()
            .flat_map(|s| {
                let InteractionModel::PairwiseConflict { p } = s.world.interaction else {
                    panic!("catalog scenarios use the pairwise model");
                };
                let x_star = (1.0 / p.sqrt()).round() as usize;
                [
                    s.world.interaction,
                    InteractionModel::decay_with_optimum(x_star),
                ]
            })
            .collect()
    }

    #[test]
    fn catalog_thresholds_match_the_float_rule() {
        use mwu_core::rng::{bernoulli_hit, bernoulli_threshold};
        for model in catalog_models() {
            let (InteractionModel::PairwiseConflict { p: prob }
            | InteractionModel::PerMutationDecay { q: prob }) = model;
            let t = bernoulli_threshold(prob);
            for k in [t - 1, t, t + 1] {
                let hash = k << 11;
                let float = (k as f64 * (1.0 / (1u64 << 53) as f64)) < prob;
                assert_eq!(bernoulli_hit(hash, t), float, "{model:?}");
            }
        }
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn survival_equals_the_five_hash_reference(
                raw in prop::collection::vec(any::<u64>(), 0..513),
                world in any::<u64>(),
            ) {
                let muts = ids(&raw);
                for model in catalog_models() {
                    prop_assert_eq!(
                        model.composition_survives(world, &muts),
                        reference_survives(&model, world, &muts)
                    );
                }
            }

            #[test]
            fn survival_equals_the_reference_with_repeated_ids(
                raw in prop::collection::vec(0u64..40, 0..64),
                world in any::<u64>(),
            ) {
                let muts = ids(&raw);
                for model in catalog_models() {
                    prop_assert_eq!(
                        model.composition_survives(world, &muts),
                        reference_survives(&model, world, &muts)
                    );
                }
            }
        }
    }
}
