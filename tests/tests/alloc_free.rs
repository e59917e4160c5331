//! Steady-state allocation audit for the MWU round kernels.
//!
//! A counting global allocator wraps the system allocator; after a warmup
//! phase (which is allowed to grow every scratch buffer to its steady-state
//! capacity) the counter is armed and each algorithm runs additional
//! plan → pull → update rounds. The assertion is exact: **zero** heap
//! allocations on the armed rounds, for every algorithm the round-kernel
//! refactor covers.
//!
//! The MWRepair probe path gets the same audit: sample a composition
//! into per-thread scratch, evaluate it, return the scratch.
//!
//! Everything runs inside a single `#[test]` because a global allocator is
//! process-wide state: parallel test threads would alias the counter.

use apr_sim::{BugScenario, Mutation, SampleScratch};
use mwu_core::alternatives::{Exp3, HedgeConfig, HedgeMwu};
use mwu_core::prelude::*;
use mwu_core::slate::SlateSampling;
use mwu_core::ThreadArena;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations while `ARMED`; delegates everything to [`System`].
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `rounds` plan → pull → update cycles against `bandit`, reusing a
/// preallocated rewards buffer so the harness itself allocates nothing.
fn run_rounds(
    alg: &mut dyn MwuAlgorithm,
    bandit: &mut ValueBandit,
    rewards: &mut Vec<f64>,
    rng: &mut SmallRng,
    rounds: usize,
) {
    for _ in 0..rounds {
        rewards.clear();
        {
            // `plan` borrows `alg` until the end of this block; pulling only
            // needs the bandit and the RNG, so the plan slice stays valid.
            let plan = alg.plan(rng);
            for &arm in plan {
                rewards.push(bandit.pull(arm, rng));
            }
        }
        alg.update(rewards, rng);
    }
}

/// Audit one algorithm: warmup unarmed (scratch grows to capacity), then
/// count allocations over the armed steady-state rounds.
fn audit(name: &str, alg: &mut dyn MwuAlgorithm, k: usize, warmup: usize, armed_rounds: usize) {
    let mut bandit = ValueBandit::exact(mwu_core::bandit::random_values(k, 9));
    let mut rng = SmallRng::seed_from_u64(7);
    // Capacity for the largest plan this algorithm can produce.
    let mut rewards: Vec<f64> = Vec::with_capacity(alg.cpus_per_iteration() * 2);

    run_rounds(alg, &mut bandit, &mut rewards, &mut rng, warmup);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    run_rounds(alg, &mut bandit, &mut rewards, &mut rng, armed_rounds);
    ARMED.store(false, Ordering::SeqCst);

    let count = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        count, 0,
        "{name}: {count} heap allocations in {armed_rounds} steady-state rounds"
    );
}

/// One probe as the MWRepair driver runs it: arena scratch in, sample,
/// evaluate, scratch back. Returns whether the probe repaired.
fn probe(
    scenario: &BugScenario,
    pool: &apr_sim::MutationPool,
    x: usize,
    rng: &mut SmallRng,
) -> bool {
    let (mut scratch, mut comp) =
        ThreadArena::with(|a| (a.take::<SampleScratch>(), a.take::<Vec<Mutation>>()));
    pool.sample_composition_into(x, rng, &mut scratch, &mut comp);
    let out = scenario.evaluate(&comp, None);
    ThreadArena::with(|a| {
        a.give(scratch);
        a.give(comp);
    });
    out.repaired
}

/// Audit the probe path on a catalog scenario: after warmup at the largest
/// composition size, probes of any size up to it allocate nothing.
fn audit_probe_loop(name: &str, max_x: usize, armed_probes: usize) {
    let scenario = BugScenario::by_name(name).expect("catalog scenario");
    let pool = scenario.build_pool(1, None);
    let max_x = max_x.min(pool.len());
    let mut rng = SmallRng::seed_from_u64(3);
    for x in [max_x, 1, max_x / 2, max_x] {
        probe(&scenario, &pool, x, &mut rng);
    }

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let mut repaired = 0usize;
    for _ in 0..armed_probes {
        let x = rng.gen_range(1..=max_x);
        repaired += usize::from(probe(&scenario, &pool, x, &mut rng));
    }
    ARMED.store(false, Ordering::SeqCst);

    let count = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        count, 0,
        "{name} probe loop: {count} heap allocations in {armed_probes} steady-state probes \
         ({repaired} repaired)"
    );
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    let k = 256;

    let mut standard = StandardMwu::new(k, StandardConfig::default());
    audit("standard", &mut standard, k, 200, 100);

    let mut slate = SlateMwu::new(k, SlateConfig::default());
    audit("slate", &mut slate, k, 200, 100);

    let mut slate_decomp = SlateMwu::new(
        k,
        SlateConfig {
            sampling: SlateSampling::ConvexDecomposition,
            ..SlateConfig::default()
        },
    );
    audit("slate-decomp", &mut slate_decomp, k, 50, 25);

    let mut distributed = DistributedMwu::new(64, DistributedConfig::default());
    audit("distributed", &mut distributed, 64, 100, 50);

    let mut hedge = HedgeMwu::new(k, HedgeConfig::default());
    audit("hedge", &mut hedge, k, 200, 100);

    let mut exp3 = Exp3::new(k, 0.05);
    audit("exp3", &mut exp3, k, 200, 100);

    audit_probe_loop("libtiff-2005-12-14", 512, 2_000);
    audit_probe_loop("gzip-2009-08-16", 512, 500);
}
