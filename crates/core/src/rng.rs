//! Deterministic randomness utilities.
//!
//! Every experiment in the paper is run with 100 unique random seeds
//! (§IV-B). To make each (experiment, scenario, replicate) triple exactly
//! reproducible regardless of execution order — replicates run in parallel
//! under rayon — all randomness in this workspace is derived from explicit
//! seeds through the helpers here rather than from a shared global stream.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 step. A small, high-quality 64-bit mixer used to derive
/// independent sub-seeds from a base seed plus arbitrary stream labels.
///
/// This is the canonical seeding finalizer recommended by the xoshiro
/// authors; successive outputs are statistically independent enough to seed
/// separate generators.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix any number of 64-bit labels into a single derived seed.
///
/// `mix(&[experiment, scenario, replicate])` yields a seed that differs in
/// ~50 % of bits when any single label changes.
pub fn mix(labels: &[u64]) -> u64 {
    MixPrefix::new().absorb_all(labels).finish()
}

/// A [`mix`] fold that has already absorbed some leading labels.
///
/// `MixPrefix::new().absorb_all(&l[..k]).absorb_all(&l[k..]).finish()`
/// equals `mix(&l)` for every split `k`. Draws that share leading labels
/// (a world seed and a stream tag, say) absorb them once and pay one
/// `splitmix64` per remaining label plus one to finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixPrefix(u64);

impl MixPrefix {
    /// The empty prefix: nothing absorbed yet.
    #[inline]
    pub const fn new() -> Self {
        MixPrefix(0x51_7C_C1_B7_27_22_0A_95)
    }

    /// This prefix with `label` absorbed after the ones it holds.
    #[inline]
    pub fn absorb(self, label: u64) -> Self {
        MixPrefix(splitmix64(self.0 ^ label.rotate_left(17)))
    }

    /// This prefix with every label of `labels` absorbed, in order.
    #[inline]
    pub fn absorb_all(self, labels: &[u64]) -> Self {
        labels.iter().fold(self, |p, &l| p.absorb(l))
    }

    /// The [`mix`] of the absorbed labels.
    #[inline]
    pub fn finish(self) -> u64 {
        splitmix64(self.0)
    }
}

impl Default for MixPrefix {
    fn default() -> Self {
        Self::new()
    }
}

/// Construct a [`SmallRng`] from a base seed and a list of stream labels.
pub fn rng_for(seed: u64, labels: &[u64]) -> SmallRng {
    SmallRng::seed_from_u64(MixPrefix::new().absorb(seed).absorb_all(labels).finish())
}

/// Deterministic Bernoulli draw keyed by arbitrary labels.
///
/// Used by the APR substrate to make a mutation's safety and a mutation
/// pair's conflict a *fixed property of the scenario* (the same mutation is
/// always safe or always unsafe for a given world seed), while still being
/// marginally Bernoulli(p) across mutations. The draw consumes no RNG state.
pub fn keyed_bernoulli(p: f64, labels: &[u64]) -> bool {
    debug_assert!((0.0..=1.0).contains(&p));
    bernoulli_hit(mix(labels), bernoulli_threshold(p))
}

/// Integer threshold of a Bernoulli(`p`) keyed draw: `ceil(p·2⁵³)`.
///
/// A keyed draw maps a hash `h` to the 53-bit uniform `u = (h >> 11)·2⁻⁵³`
/// and hits when `u < p`. Scaling by 2⁵³ is exact, and an integer is below
/// a real number exactly when it is below that number's ceiling, so
/// [`bernoulli_hit`]`(h, bernoulli_threshold(p))` decides `u < p` for
/// every hash, bit for bit. The saturating cast keeps the edge cases too:
/// NaN and `p ≤ 0` give 0 (never hits), `p ≥ 1` gives at least 2⁵³
/// (always hits). Compute it once per probability and reuse it across
/// draws.
#[inline]
pub fn bernoulli_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Does the keyed hash `hash` hit a Bernoulli draw with the given
/// [`bernoulli_threshold`]?
#[inline]
pub fn bernoulli_hit(hash: u64, threshold: u64) -> bool {
    (hash >> 11) < threshold
}

/// Deterministic uniform draw in `[0, 1)` keyed by labels (no RNG state).
pub fn keyed_uniform(labels: &[u64]) -> f64 {
    (mix(labels) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
    }

    #[test]
    fn mix_depends_on_every_label() {
        let base = mix(&[1, 2, 3]);
        assert_ne!(base, mix(&[9, 2, 3]));
        assert_ne!(base, mix(&[1, 9, 3]));
        assert_ne!(base, mix(&[1, 2, 9]));
        assert_eq!(base, mix(&[1, 2, 3]));
    }

    #[test]
    fn mix_is_order_sensitive() {
        assert_ne!(mix(&[1, 2]), mix(&[2, 1]));
    }

    #[test]
    fn keyed_bernoulli_edge_probabilities() {
        for i in 0..100u64 {
            assert!(!keyed_bernoulli(0.0, &[i]));
            assert!(keyed_bernoulli(1.0, &[i]));
        }
    }

    #[test]
    fn keyed_bernoulli_marginal_rate_close_to_p() {
        let p = 0.3;
        let hits = (0..20_000u64)
            .filter(|&i| keyed_bernoulli(p, &[i, 77]))
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - p).abs() < 0.02, "rate {rate} too far from {p}");
    }

    /// The float rule `keyed_bernoulli` used before the integer threshold.
    fn float_hit(hash: u64, p: f64) -> bool {
        ((hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }

    #[test]
    fn integer_threshold_matches_float_rule() {
        let subnormal = f64::from_bits(1);
        assert!(subnormal > 0.0 && !subnormal.is_normal());
        let two_pow_53 = (1u64 << 53) as f64;
        // The catalog's own probabilities are checked in `apr-sim`.
        for p in [0.0, 1.0, 1.0 / two_pow_53, 0.5, subnormal, 0.3, 0.3 * 1.15] {
            let t = bernoulli_threshold(p);
            // The hashes straddling the boundary, the extremes, and a spread
            // of keyed hashes.
            let mut hashes = vec![0, u64::MAX];
            for k in [t.saturating_sub(1), t, t + 1] {
                if k < (1u64 << 53) {
                    hashes.push(k << 11);
                    hashes.push((k << 11) | 0x7FF);
                }
            }
            hashes.extend((0..2_000u64).map(|i| mix(&[i, p.to_bits()])));
            for h in hashes {
                assert_eq!(bernoulli_hit(h, t), float_hit(h, p), "p {p:e}, hash {h:#x}");
            }
        }
        assert_eq!(bernoulli_threshold(0.0), 0);
        assert_eq!(bernoulli_threshold(1.0), 1u64 << 53);
        assert_eq!(bernoulli_threshold(1.0 / two_pow_53), 1);
        assert_eq!(bernoulli_threshold(subnormal), 1);
    }

    #[test]
    fn keyed_uniform_in_unit_interval_and_spread() {
        let mut lo = 0usize;
        for i in 0..10_000u64 {
            let u = keyed_uniform(&[i]);
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                lo += 1;
            }
        }
        assert!((lo as f64 / 10_000.0 - 0.5).abs() < 0.03);
    }

    #[test]
    fn rng_for_streams_are_reproducible_and_distinct() {
        use rand::Rng;
        let mut a1 = rng_for(7, &[1]);
        let mut a2 = rng_for(7, &[1]);
        let mut b = rng_for(7, &[2]);
        let xa1: u64 = a1.gen();
        let xa2: u64 = a2.gen();
        let xb: u64 = b.gen();
        assert_eq!(xa1, xa2);
        assert_ne!(xa1, xb);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn mix_prefix_from_any_split_equals_mix(
            labels in prop::collection::vec(any::<u64>(), 0..12),
            split in 0usize..13,
        ) {
            let k = split.min(labels.len());
            let (head, tail) = labels.split_at(k);
            let prefix = MixPrefix::new().absorb_all(head);
            prop_assert_eq!(prefix.absorb_all(tail).finish(), mix(&labels));
            let one_by_one = tail.iter().fold(prefix, |p, &l| p.absorb(l));
            prop_assert_eq!(one_by_one.finish(), mix(&labels));
        }

        #[test]
        fn integer_threshold_matches_float_rule_for_any_p(
            p in 0.0f64..1.0,
            hash in any::<u64>(),
        ) {
            let float = ((hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p;
            prop_assert_eq!(bernoulli_hit(hash, bernoulli_threshold(p)), float);
        }
    }
}
