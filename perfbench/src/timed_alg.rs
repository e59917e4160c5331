//! A forwarding [`MwuAlgorithm`] that times the two round kernels, `plan`
//! and `update`, from outside the algorithm.
//!
//! Every trait method is forwarded, including the ones with defaults
//! (`probabilities_into`), so a wrapped run takes exactly the code path
//! of a bare one. The traced run checks that wrapped and bare runs give
//! equal outcomes.

use mwu_core::{cost::Variant, CommStats, MwuAlgorithm};
use rand::rngs::SmallRng;
use std::time::Instant;

/// Kernel time and work counted by a [`Timed`] wrapper.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTimes {
    pub plan_ns: u64,
    pub update_ns: u64,
    /// `plan` calls: one per update cycle.
    pub iterations: u64,
    /// Arms handed out by `plan`: one per pull or probe.
    pub pulls: u64,
}

impl KernelTimes {
    pub fn add(&mut self, other: &KernelTimes) {
        self.plan_ns += other.plan_ns;
        self.update_ns += other.update_ns;
        self.iterations += other.iterations;
        self.pulls += other.pulls;
    }
}

/// `inner` with its `plan` and `update` calls timed.
pub struct Timed<A> {
    inner: A,
    pub times: KernelTimes,
}

impl<A> Timed<A> {
    pub fn new(inner: A) -> Self {
        Timed {
            inner,
            times: KernelTimes::default(),
        }
    }
}

impl<A: MwuAlgorithm> MwuAlgorithm for Timed<A> {
    fn num_arms(&self) -> usize {
        self.inner.num_arms()
    }

    fn plan(&mut self, rng: &mut SmallRng) -> &[usize] {
        let start = Instant::now();
        let plan = self.inner.plan(rng);
        self.times.plan_ns += start.elapsed().as_nanos() as u64;
        self.times.iterations += 1;
        self.times.pulls += plan.len() as u64;
        plan
    }

    fn update(&mut self, rewards: &[f64], rng: &mut SmallRng) {
        let start = Instant::now();
        self.inner.update(rewards, rng);
        self.times.update_ns += start.elapsed().as_nanos() as u64;
    }

    fn leader(&self) -> usize {
        self.inner.leader()
    }

    fn leader_share(&self) -> f64 {
        self.inner.leader_share()
    }

    fn has_converged(&self) -> bool {
        self.inner.has_converged()
    }

    fn cpus_per_iteration(&self) -> usize {
        self.inner.cpus_per_iteration()
    }

    fn probabilities(&self) -> Vec<f64> {
        self.inner.probabilities()
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        self.inner.probabilities_into(out)
    }

    fn comm_stats(&self) -> CommStats {
        self.inner.comm_stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn variant(&self) -> Variant {
        self.inner.variant()
    }
}
