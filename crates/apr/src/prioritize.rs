//! Test prioritization and early-exit evaluation.
//!
//! "Testing the functionality of a large-scale software project can take
//! minutes to hours; this step occurs in the inner loop and is the dominant
//! cost" (paper §I). Real APR tools therefore do not always run the full
//! suite per probe: they order tests and stop at the first failure, which
//! is dramatically cheaper for the ~30–70 % of probes that break the
//! program. This module provides:
//!
//! * [`TestOrder`] — test orderings: suite order, cheapest-first, and
//!   most-discriminating-first (highest historical failure rate per unit
//!   cost, the classic prioritization heuristic);
//! * [`evaluate_early_exit`] — composition evaluation identical in verdict
//!   to [`crate::evaluate_composition`] but charged only for the tests
//!   actually executed (all of them for surviving probes; up to and
//!   including the first failing test otherwise).
//!
//! Which tests a broken composition fails is a fixed property of the
//! composition (keyed draws), so verdicts and costs are deterministic and
//! reproducible like everything else in the substrate.

use crate::evaluate::{composition_key, evaluate_composition, ProbeOutcome, WorldParams};
use crate::ledger::CostLedger;
use crate::mutation::Mutation;
use crate::suite::TestSuite;
use mwu_core::rng::keyed_uniform;
use serde::{Deserialize, Serialize};

/// A test-execution order for early-exit evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TestOrder {
    /// Suite order (ids ascending) — the unprioritized baseline.
    SuiteOrder,
    /// Cheapest test first: minimizes the cost of reaching *a* failure
    /// when failures are spread uniformly.
    CheapestFirst,
    /// Highest failure-probability per unit cost first: the standard
    /// prioritization heuristic. Failure probability per test is estimated
    /// from the composition-failure model (a broken composition fails each
    /// required test with roughly the same marginal probability, so this
    /// reduces to cheapest-first here unless callers supply weights —
    /// retained as a distinct variant because the ordering differs once
    /// historical weights are attached).
    DiscriminatingFirst,
}

impl TestOrder {
    /// The required-test ids in execution order for this strategy.
    pub fn order(&self, suite: &TestSuite) -> Vec<usize> {
        let mut required: Vec<usize> = suite
            .tests()
            .iter()
            .filter(|t| !t.triggers_bug)
            .map(|t| t.id)
            .collect();
        match self {
            TestOrder::SuiteOrder => {}
            TestOrder::CheapestFirst | TestOrder::DiscriminatingFirst => {
                required.sort_by_key(|&id| suite.tests()[id].cost_ms);
            }
        }
        required
    }
}

/// Which required tests a *broken* composition fails — a deterministic
/// keyed draw per (world, composition, test), consistent with the failure
/// count [`crate::evaluate_composition`] reports.
fn fails_test(world: &WorldParams, comp_key: u64, test_id: usize, fail_fraction: f64) -> bool {
    keyed_uniform(&[world.world_seed, 0xFA_11ED, comp_key, test_id as u64]) < fail_fraction
}

/// Evaluate `muts` with early exit under `order`.
///
/// The verdict (survived / repaired / fitness) is exactly that of
/// [`crate::evaluate_composition`]; only the charged cost differs:
/// surviving (and repairing) probes still execute the full suite, while
/// broken probes stop at their first failing test in the given order.
pub fn evaluate_early_exit(
    world: &WorldParams,
    suite: &TestSuite,
    order: TestOrder,
    muts: &[Mutation],
    ledger: Option<&CostLedger>,
) -> ProbeOutcome {
    // Adjudicate without charging (the None ledger), then charge for what
    // early exit actually executes.
    let full = evaluate_composition(world, suite, muts, None);
    if full.survived {
        // Full suite runs (every test passes, plus bug tests).
        if let Some(l) = ledger {
            l.record_eval(full.cost_ms);
        }
        return full;
    }

    // Broken probe: walk the order until the first failing test.
    let failed = (suite.baseline_fitness() - full.fitness) as f64;
    let fail_fraction = (failed / suite.n_required().max(1) as f64).clamp(0.0, 1.0);
    let key = composition_key(muts);
    let mut executed_ms: u64 = 0;
    let mut found_failure = false;
    for id in order.order(suite) {
        executed_ms += suite.tests()[id].cost_ms;
        if fails_test(world, key, id, fail_fraction) {
            found_failure = true;
            break;
        }
    }
    // Rounding edge: the keyed draws can miss every test even though the
    // fitness model says ≥1 failed; the full suite then ran.
    if !found_failure {
        executed_ms = suite.full_run_cost_ms();
    }
    if let Some(l) = ledger {
        l.record_eval(executed_ms);
    }
    ProbeOutcome {
        cost_ms: executed_ms,
        ..full
    }
}

/// Mean evaluation cost (simulated ms) of `trials` random x-compositions
/// from `pool` under a strategy — the quantity the `eval_cost` experiment
/// sweeps.
pub fn mean_eval_cost(
    world: &WorldParams,
    suite: &TestSuite,
    pool: &crate::pool::MutationPool,
    order: Option<TestOrder>,
    x: usize,
    trials: usize,
    seed: u64,
) -> f64 {
    use rand::SeedableRng;
    let mut total: u64 = 0;
    for t in 0..trials {
        let mut rng =
            rand::rngs::SmallRng::seed_from_u64(mwu_core::rng::mix(&[seed, x as u64, t as u64]));
        let comp = pool.sample_composition(x.min(pool.len()), &mut rng);
        let out = match order {
            Some(o) => evaluate_early_exit(world, suite, o, &comp, None),
            None => evaluate_composition(world, suite, &comp, None),
        };
        total += out.cost_ms;
    }
    total as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{BugScenario, ScenarioKind};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup() -> (BugScenario, crate::pool::MutationPool) {
        let s = BugScenario::custom("prio", ScenarioKind::Synthetic, 80, 15, 400, 25, 0.0, 91);
        let pool = s.build_pool(3, None);
        (s, pool)
    }

    #[test]
    fn orders_cover_all_required_tests() {
        let (s, _) = setup();
        for order in [
            TestOrder::SuiteOrder,
            TestOrder::CheapestFirst,
            TestOrder::DiscriminatingFirst,
        ] {
            let o = order.order(&s.suite);
            assert_eq!(o.len(), s.suite.n_required());
            let mut sorted = o.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), o.len(), "{order:?} has duplicates");
        }
    }

    #[test]
    fn cheapest_first_is_cost_sorted() {
        let (s, _) = setup();
        let o = TestOrder::CheapestFirst.order(&s.suite);
        for w in o.windows(2) {
            assert!(s.suite.tests()[w[0]].cost_ms <= s.suite.tests()[w[1]].cost_ms);
        }
    }

    #[test]
    fn verdicts_match_full_evaluation() {
        let (s, pool) = setup();
        let mut rng = SmallRng::seed_from_u64(4);
        for x in [1usize, 10, 40, 80] {
            let comp = pool.sample_composition(x, &mut rng);
            let full = evaluate_composition(&s.world, &s.suite, &comp, None);
            let early =
                evaluate_early_exit(&s.world, &s.suite, TestOrder::CheapestFirst, &comp, None);
            assert_eq!(full.survived, early.survived, "x={x}");
            assert_eq!(full.repaired, early.repaired, "x={x}");
            assert_eq!(full.fitness, early.fitness, "x={x}");
        }
    }

    #[test]
    fn early_exit_is_cheaper_for_breaking_compositions() {
        let (s, pool) = setup();
        // Large x breaks most compositions; early exit must cut mean cost.
        let full = mean_eval_cost(&s.world, &s.suite, &pool, None, 60, 200, 7);
        let early = mean_eval_cost(
            &s.world,
            &s.suite,
            &pool,
            Some(TestOrder::CheapestFirst),
            60,
            200,
            7,
        );
        assert!(
            early < 0.8 * full,
            "early-exit {early} not well below full {full}"
        );
    }

    #[test]
    fn surviving_probes_pay_full_cost() {
        let (s, pool) = setup();
        // x = 1: always survives (pool members are safe singletons).
        let full = mean_eval_cost(&s.world, &s.suite, &pool, None, 1, 50, 8);
        let early = mean_eval_cost(
            &s.world,
            &s.suite,
            &pool,
            Some(TestOrder::SuiteOrder),
            1,
            50,
            8,
        );
        assert!((full - early).abs() < 1e-9);
    }

    #[test]
    fn early_exit_cost_is_deterministic_and_ledgered() {
        let (s, pool) = setup();
        let mut rng = SmallRng::seed_from_u64(9);
        let comp = pool.sample_composition(50, &mut rng);
        let a = evaluate_early_exit(&s.world, &s.suite, TestOrder::CheapestFirst, &comp, None);
        let b = evaluate_early_exit(&s.world, &s.suite, TestOrder::CheapestFirst, &comp, None);
        assert_eq!(a, b);

        let ledger = CostLedger::new();
        let c = evaluate_early_exit(
            &s.world,
            &s.suite,
            TestOrder::CheapestFirst,
            &comp,
            Some(&ledger),
        );
        assert_eq!(ledger.fitness_evals(), 1);
        assert_eq!(ledger.simulated_ms(), c.cost_ms);
    }
}
