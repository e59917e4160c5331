//! Composition evaluation: apply a set of mutations, run the suite, observe.
//!
//! This is the paper's inner loop (Fig. 6 lines 5–13): build `P'` from the
//! original program and a set of pooled mutations, evaluate `f(P', S)`, and
//! classify the probe. One call = one fitness evaluation = one full
//! simulated test-suite run, charged to the [`CostLedger`].

use crate::interaction::InteractionModel;
use crate::ledger::CostLedger;
use crate::mutation::{Mutation, RepairCheck, SafetyCheck};
use crate::suite::TestSuite;
use mwu_core::rng::keyed_uniform;
use serde::{Deserialize, Serialize};

/// Everything observable from one probe (one mutated program's test run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeOutcome {
    /// Passed every required test (retained fitness).
    pub survived: bool,
    /// Survived *and* passed the bug-inducing test(s) — a repair.
    pub repaired: bool,
    /// Number of tests passed, the paper's fitness `f(P', S)`.
    pub fitness: u32,
    /// Simulated cost of this evaluation in milliseconds.
    pub cost_ms: u64,
}

/// Parameters of the simulated world needed to adjudicate a composition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorldParams {
    /// World seed fixing all deterministic draws.
    pub world_seed: u64,
    /// Individual whole-statement safe-mutation rate (paper ≈ 0.30).
    pub safe_rate: f64,
    /// Interaction model for composed mutations.
    pub interaction: InteractionModel,
    /// Statement where the defect manifests.
    pub defect_site: usize,
    /// Per-safe-mutation probability of being a repair.
    pub repair_rate: f64,
}

/// Evaluate a composition of mutations against the suite.
///
/// Semantics:
/// 1. If any member is individually unsafe, the composition fails some
///    required tests (fitness drops below baseline).
/// 2. Otherwise the interaction model decides survival; a surviving
///    composition has exactly baseline fitness — unless it contains at
///    least one repair mutation **and** no conflict masked it, in which
///    case it passes the bug tests too (maximum fitness).
/// 3. Every evaluation costs one full suite run (charged to `ledger` if
///    provided).
pub fn evaluate_composition(
    world: &WorldParams,
    suite: &TestSuite,
    muts: &[Mutation],
    ledger: Option<&CostLedger>,
) -> ProbeOutcome {
    let cost_ms = suite.full_run_cost_ms();
    if let Some(l) = ledger {
        l.record_eval(cost_ms);
    }

    let safety = SafetyCheck::new(world.world_seed, world.safe_rate);
    let all_safe = muts.iter().all(|m| safety.passes(m));

    let survived = all_safe
        && world
            .interaction
            .survives(world.world_seed, muts.iter().map(|m| m.id().0));

    if !survived {
        // A broken program fails between 1 and ~30 % of the required tests;
        // the exact count is a fixed property of the composition.
        let frac = keyed_uniform(&[world.world_seed, 0xBAD_F17, composition_key(muts)]);
        let failed = 1 + (frac * 0.30 * suite.n_required() as f64) as u32;
        let fitness = suite.baseline_fitness().saturating_sub(failed);
        return ProbeOutcome {
            survived: false,
            repaired: false,
            fitness,
            cost_ms,
        };
    }

    let repair = RepairCheck::new(world.world_seed, world.defect_site, world.repair_rate);
    let repaired = muts.iter().any(|m| repair.repairs(m));

    ProbeOutcome {
        survived: true,
        repaired,
        fitness: if repaired {
            suite.max_fitness()
        } else {
            suite.baseline_fitness()
        },
        cost_ms,
    }
}

/// Order-free key of a composition: the XOR of its members' rotated ids.
/// It keys every per-composition draw of a broken probe, here and in
/// [`crate::prioritize`], so both agree on what a composition fails.
pub(crate) fn composition_key(muts: &[Mutation]) -> u64 {
    muts.iter().fold(0u64, |a, m| a ^ m.id().0.rotate_left(13))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::MutOp;
    use crate::program::Program;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn world() -> WorldParams {
        WorldParams {
            world_seed: 42,
            safe_rate: 0.3,
            interaction: InteractionModel::pairwise_with_optimum(20),
            defect_site: 50,
            repair_rate: 0.005,
        }
    }

    fn pick_safe(world: &WorldParams, program: &Program, n: usize, seed: u64) -> Vec<Mutation> {
        let sites: Vec<usize> = (0..program.len()).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        while out.len() < n {
            let m = Mutation::random(program, &sites, &mut rng);
            if m.is_safe(world.world_seed, world.safe_rate) && !out.contains(&m) {
                out.push(m);
            }
        }
        out
    }

    #[test]
    fn empty_composition_is_baseline() {
        let w = world();
        let suite = TestSuite::synthetic(20, 1, 42);
        let out = evaluate_composition(&w, &suite, &[], None);
        assert!(out.survived);
        assert!(!out.repaired);
        assert_eq!(out.fitness, suite.baseline_fitness());
        assert_eq!(out.cost_ms, suite.full_run_cost_ms());
    }

    #[test]
    fn unsafe_member_breaks_composition() {
        let w = world();
        let suite = TestSuite::synthetic(20, 1, 42);
        let program = Program::synthetic("p", 100, w.world_seed);
        let sites: Vec<usize> = (0..100).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        // Find an individually unsafe mutation.
        let unsafe_m = loop {
            let m = Mutation::random(&program, &sites, &mut rng);
            if !m.is_safe(w.world_seed, w.safe_rate) {
                break m;
            }
        };
        let out = evaluate_composition(&w, &suite, &[unsafe_m], None);
        assert!(!out.survived);
        assert!(!out.repaired);
        assert!(out.fitness < suite.baseline_fitness());
    }

    #[test]
    fn single_safe_mutation_survives() {
        let w = world();
        let suite = TestSuite::synthetic(20, 1, 42);
        let program = Program::synthetic("p", 100, w.world_seed);
        let muts = pick_safe(&w, &program, 1, 5);
        let out = evaluate_composition(&w, &suite, &muts, None);
        assert!(out.survived);
        assert!(out.fitness >= suite.baseline_fitness());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let w = world();
        let suite = TestSuite::synthetic(20, 1, 42);
        let program = Program::synthetic("p", 100, w.world_seed);
        let muts = pick_safe(&w, &program, 8, 6);
        let a = evaluate_composition(&w, &suite, &muts, None);
        let b = evaluate_composition(&w, &suite, &muts, None);
        assert_eq!(a, b);
    }

    #[test]
    fn repair_reaches_max_fitness() {
        // Scan for a composition containing a repair mutation.
        let mut w = world();
        w.repair_rate = 0.05; // boost so the scan is quick
        let suite = TestSuite::synthetic(20, 1, 42);
        let program = Program::synthetic("p", 100, w.world_seed);
        let mut found = false;
        for seed in 0..200 {
            let muts = pick_safe(&w, &program, 1, seed);
            let out = evaluate_composition(&w, &suite, &muts, None);
            if out.repaired {
                assert_eq!(out.fitness, suite.max_fitness());
                assert!(out.survived);
                found = true;
                break;
            }
        }
        assert!(found, "no repair found in 200 single-mutation probes");
    }

    #[test]
    fn ledger_is_charged_per_evaluation() {
        let w = world();
        let suite = TestSuite::synthetic(10, 1, 42);
        let ledger = CostLedger::new();
        for _ in 0..5 {
            evaluate_composition(&w, &suite, &[], Some(&ledger));
        }
        assert_eq!(ledger.fitness_evals(), 5);
        assert_eq!(ledger.simulated_ms(), 5 * suite.full_run_cost_ms());
    }

    #[test]
    fn larger_compositions_survive_less_often() {
        let w = world();
        let suite = TestSuite::synthetic(10, 1, 42);
        let program = Program::synthetic("p", 400, w.world_seed);
        let survival_at = |x: usize| -> f64 {
            let trials = 150;
            let mut ok = 0;
            for t in 0..trials {
                let muts = pick_safe(&w, &program, x, 1000 + t);
                if evaluate_composition(&w, &suite, &muts, None).survived {
                    ok += 1;
                }
            }
            ok as f64 / trials as f64
        };
        let s2 = survival_at(2);
        let s40 = survival_at(40);
        assert!(s2 > s40, "survival(2)={s2} !> survival(40)={s40}");
        assert!(s2 > 0.9);
    }

    #[test]
    fn delete_of_mut_op_is_reachable() {
        // Sanity: the operator enum round-trips through evaluation without
        // special-casing.
        let w = world();
        let suite = TestSuite::synthetic(5, 1, 42);
        let m = Mutation {
            op: MutOp::Delete,
            site: 3,
            donor: 3,
        };
        let _ = evaluate_composition(&w, &suite, &[m], None);
    }
}
