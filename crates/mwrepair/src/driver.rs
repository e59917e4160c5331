//! The MWRepair online phase (paper Fig. 6).
//!
//! Per update cycle:
//!
//! 1. `MWU_Sample` — the MWU algorithm plans which arm (composition size
//!    `x`) each parallel agent probes ([`mwu_core::MwuAlgorithm::plan`]).
//! 2. **Parallel evaluation** — each agent samples `x` distinct pool
//!    mutations, applies them, and runs the suite. Probes run concurrently
//!    on the rayon work-sharing pool; each derives its RNG stream from
//!    `mix(seed, iteration, agent)` and results are collected in agent
//!    order, so outcomes and traces are byte-identical at every thread
//!    count (`docs/PARALLELISM.md`). If a probe reaches maximum fitness,
//!    the repaired program is returned immediately (Fig. 6 line 8,
//!    "Terminate Early").
//! 3. `MWU_Update` — observed rewards update the weights.
//!
//! ## Reward definition
//!
//! Fig. 6 line 9 scores a probe `1` when `f(P') ≥ f(P)` (fitness retained).
//! Used raw, that reward is monotone-decreasing in `x` and drives every
//! bandit to `x = 1`; the paper instead biases the search toward the
//! *repair-density* optimum using "the density of safe mutations, which the
//! search does sample, as a proxy" (§III-B). [`RewardMode::DensityProxy`]
//! implements that proxy — reward `x/x_max` on retained fitness, `0`
//! otherwise, whose expectation `∝ x·survival(x)` is the unimodal density
//! curve of Fig. 4b. [`RewardMode::FitnessRetained`] is the literal Fig. 6
//! rule, kept for ablation.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::report::{RepairOutcome, RepairReport};
use apr_sim::{BugScenario, CostLedger, Mutation, MutationPool, SampleScratch};
use mwu_core::rng::mix;
use mwu_core::trace::{
    CommDelta, ConvergenceEvent, IterationEvent, NullObserver, Observer, ProbeEvent, RepairEvent,
    RewardSummary, RunStartEvent,
};
use mwu_core::{
    DistributedConfig, DistributedMwu, MwuAlgorithm, RunOutcome, SlateConfig, SlateMwu,
    StandardConfig, StandardMwu,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// How probe outcomes map to bandit rewards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RewardMode {
    /// Literal Fig. 6: reward 1 iff the probe retained fitness.
    FitnessRetained,
    /// Repair-density proxy (§III-B): reward `x/x_max` iff the probe
    /// retained fitness. Default.
    DensityProxy,
}

/// Configuration for one MWRepair online run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MwRepairConfig {
    /// Update-cycle limit `T` (Fig. 6). Paper experiments use 10,000; end-
    /// to-end repair runs usually terminate long before.
    pub max_iterations: usize,
    /// RNG seed for the run.
    pub seed: u64,
    /// Reward mapping.
    pub reward: RewardMode,
    /// Largest composition size to expose as an arm. The bandit's arms are
    /// x ∈ 1..=min(pool, max_composition): exposing every pool size as an
    /// arm wastes probes on compositions far beyond the interaction scale
    /// (survival is essentially 0 past a few hundred mutations — Fig. 4a's
    /// x-axis stops at 100). Default 512, comfortably above every
    /// repair-density optimum the paper reports (11–271).
    pub max_composition: usize,
}

impl MwRepairConfig {
    /// Defaults with an explicit seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            max_iterations: 10_000,
            seed,
            reward: RewardMode::DensityProxy,
            max_composition: 512,
        }
    }
}

/// Estimated cost of one probe per composition member, in ns: sampling
/// plus the safety, interaction and repair draws. Over the catalog
/// scenarios a probe of 16–512 members costs 25–155 ns per member on a
/// 2-CPU x86-64 VM. The estimate only sizes the probe loop's pool chunks
/// and its inline threshold, so being off by 2× costs little.
const PROBE_NS_PER_MEMBER: u64 = 70;

/// Estimated fixed cost of one probe, in ns: the agent's RNG seeding and
/// the arena take/give around the composition.
const PROBE_BASE_NS: u64 = 100;

/// The probe loop's pool cost hint for `plan`: the estimated mean cost of
/// one probe, from the plan's composition sizes alone. It reads no clock,
/// so the pool's inline-or-parallel choice and its chunk size are the
/// same on every run of the same seed.
fn probe_cost_hint(plan: &[usize], pool_len: usize) -> u64 {
    let members: u64 = plan.iter().map(|&arm| (arm + 1).min(pool_len) as u64).sum();
    PROBE_BASE_NS + PROBE_NS_PER_MEMBER * members / plan.len().max(1) as u64
}

/// Number of bandit arms the online phase uses for a pool of `pool_len`
/// mutations under `config`.
pub fn effective_arms(pool_len: usize, config: &MwRepairConfig) -> usize {
    pool_len.min(config.max_composition.max(1))
}

impl Default for MwRepairConfig {
    fn default() -> Self {
        Self::seeded(0)
    }
}

/// Run the MWRepair online phase with a caller-supplied MWU algorithm.
///
/// The algorithm must have been constructed over `pool.len()` arms (arm
/// index `i` = compose `i + 1` mutations). A `ledger` may be shared with
/// the precompute phase to account total cost.
pub fn repair<A: MwuAlgorithm>(
    scenario: &BugScenario,
    pool: &MutationPool,
    alg: &mut A,
    config: &MwRepairConfig,
) -> RepairOutcome {
    repair_with_ledger(scenario, pool, alg, config, None)
}

/// [`repair`] with explicit cost accounting.
pub fn repair_with_ledger<A: MwuAlgorithm>(
    scenario: &BugScenario,
    pool: &MutationPool,
    alg: &mut A,
    config: &MwRepairConfig,
    ledger: Option<&CostLedger>,
) -> RepairOutcome {
    repair_observed(scenario, pool, alg, config, ledger, &mut NullObserver)
}

/// [`repair_with_ledger`] with run telemetry delivered to `observer`:
/// one [`ProbeEvent`] per agent probe (composition size, pool hit, reward),
/// a [`RepairEvent`] when a probe repairs, per-cycle [`IterationEvent`]s,
/// and a run footer. Event construction is gated on `observer.enabled()`,
/// so the [`NullObserver`] path is the pre-telemetry loop.
pub fn repair_observed<A: MwuAlgorithm, O: Observer>(
    scenario: &BugScenario,
    pool: &MutationPool,
    alg: &mut A,
    config: &MwRepairConfig,
    ledger: Option<&CostLedger>,
    observer: &mut O,
) -> RepairOutcome {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let (outcome, _halted) = run_loop(
        scenario,
        pool,
        alg,
        config,
        ledger,
        observer,
        &mut rng,
        0,
        0,
        false,
        None,
        |_: CheckpointArgs<'_, A>| Ok(()),
    )
    .expect("no-op checkpoint hook cannot fail");
    outcome
}

/// State handed to the checkpoint hook after each completed update cycle.
struct CheckpointArgs<'a, A> {
    alg: &'a A,
    /// Completed update cycles (absolute).
    iteration: usize,
    /// Probes issued so far (absolute).
    probes: u64,
    rng: &'a SmallRng,
    convergence_reported: bool,
    /// True when the session is about to halt: the hook must persist state
    /// now regardless of its cadence policy.
    force: bool,
}

/// The Fig. 6 update-cycle loop, shared by [`repair_observed`] (hook is a
/// no-op) and [`repair_resumable`] (hook writes checkpoints). Starts at
/// absolute iteration `start_iteration` with `init_probes` probes already
/// accounted; `halt_after` bounds the number of cycles executed *in this
/// call* (cooperative kill). Returns the outcome plus whether the session
/// halted early.
#[allow(clippy::too_many_arguments)]
fn run_loop<A, O, F>(
    scenario: &BugScenario,
    pool: &MutationPool,
    alg: &mut A,
    config: &MwRepairConfig,
    ledger: Option<&CostLedger>,
    observer: &mut O,
    rng: &mut SmallRng,
    start_iteration: usize,
    init_probes: u64,
    init_convergence_reported: bool,
    halt_after: Option<usize>,
    mut checkpoint_hook: F,
) -> Result<(RepairOutcome, bool), CheckpointError>
where
    A: MwuAlgorithm,
    O: Observer,
    F: FnMut(CheckpointArgs<'_, A>) -> Result<(), CheckpointError>,
{
    assert!(!pool.is_empty(), "online phase needs a non-empty pool");
    let arms = effective_arms(pool.len(), config);
    assert_eq!(
        alg.num_arms(),
        arms,
        "algorithm arms must match effective_arms(pool, config) (arm i = compose i+1 mutations)"
    );
    let x_max = arms as f64;
    let mut probes_total: u64 = init_probes;
    let mut found: Option<RepairReport> = None;
    let mut iterations = start_iteration;
    let mut convergence_reported = init_convergence_reported;
    let mut halted = false;
    // Reused probability snapshot for the observer's entropy figure.
    let mut probs: Vec<f64> = Vec::new();

    if observer.enabled() {
        observer.on_run_start(RunStartEvent {
            algorithm: alg.name(),
            num_arms: arms,
            cpus_per_iteration: alg.cpus_per_iteration(),
            seed: config.seed,
            max_iterations: config.max_iterations,
        });
    }

    'outer: for t in start_iteration..config.max_iterations {
        if halt_after == Some(t - start_iteration) {
            halted = true;
            checkpoint_hook(CheckpointArgs {
                alg,
                iteration: iterations,
                probes: probes_total,
                rng,
                convergence_reported,
                force: true,
            })?;
            break 'outer;
        }
        let comm_before = if observer.enabled() {
            alg.comm_stats()
        } else {
            mwu_core::CommStats::default()
        };
        let plan = alg.plan(rng);
        iterations = t + 1;
        probes_total += plan.len() as u64;

        // Parallel evaluation (Fig. 6 lines 4–14). Each agent gets a
        // deterministic RNG stream keyed by (run seed, iteration, agent) so
        // the outcome is independent of rayon's scheduling.
        struct ProbeResult {
            reward: f64,
            survived: bool,
            repair: Option<Vec<Mutation>>,
            cost_ms: u64,
            arm: usize,
        }
        let seed = config.seed;
        let probe_span = mwu_core::prof::span(mwu_core::prof::Phase::ProbeLoop);
        // The hint sizes chunks up front and keeps cycles too small to
        // amortize a pool submission inline. Purely a scheduling hint:
        // outcomes are byte-identical for any value.
        let results: Vec<ProbeResult> = plan
            .par_iter()
            .with_cost_hint(probe_cost_hint(plan, pool.len()))
            .enumerate()
            .map(|(agent, &arm)| {
                let x = arm + 1;
                let mut agent_rng = SmallRng::seed_from_u64(mix(&[seed, t as u64, agent as u64]));
                // Sampling scratch and the composition itself live in this
                // worker's persistent arena instead of being reallocated
                // per probe; a repairing composition leaves as its report.
                let (mut scratch, mut comp) = mwu_core::ThreadArena::with(|a| {
                    (a.take::<SampleScratch>(), a.take::<Vec<Mutation>>())
                });
                pool.sample_composition_into(
                    x.min(pool.len()),
                    &mut agent_rng,
                    &mut scratch,
                    &mut comp,
                );
                mwu_core::ThreadArena::with(move |a| a.give(scratch));
                let out = scenario.evaluate(&comp, ledger);
                let repair = if out.repaired {
                    Some(comp)
                } else {
                    mwu_core::ThreadArena::with(move |a| a.give(comp));
                    None
                };
                let reward = match config.reward {
                    RewardMode::FitnessRetained => {
                        if out.survived {
                            1.0
                        } else {
                            0.0
                        }
                    }
                    RewardMode::DensityProxy => {
                        if out.survived {
                            x as f64 / x_max
                        } else {
                            0.0
                        }
                    }
                };
                ProbeResult {
                    reward,
                    survived: out.survived,
                    repair,
                    cost_ms: out.cost_ms,
                    arm,
                }
            })
            .collect();
        drop(probe_span);

        // The parallel phase's critical path is its slowest probe.
        if let Some(l) = ledger {
            let max_ms = results.iter().map(|r| r.cost_ms).max().unwrap_or(0);
            l.record_parallel_phase(max_ms);
        }

        // Probes report in agent order, regardless of parallel scheduling.
        if observer.enabled() {
            for (agent, r) in results.iter().enumerate() {
                observer.on_probe(ProbeEvent {
                    iteration: t + 1,
                    agent,
                    composition_size: r.arm + 1,
                    survived: r.survived,
                    reward: r.reward,
                });
            }
        }

        // Early termination: first (lowest agent index) repairing probe.
        for (agent, r) in results.iter().enumerate() {
            if let Some(muts) = &r.repair {
                found = Some(RepairReport {
                    mutations: muts.clone(),
                    arm: r.arm + 1,
                    iteration: t + 1,
                    agent,
                });
                if observer.enabled() {
                    observer.on_repair(RepairEvent {
                        iteration: t + 1,
                        agent,
                        composition_size: r.arm + 1,
                    });
                }
                break 'outer;
            }
        }

        let rewards: Vec<f64> = results.iter().map(|r| r.reward).collect();
        alg.update(&rewards, rng);

        if observer.enabled() {
            alg.probabilities_into(&mut probs);
            observer.on_iteration(IterationEvent {
                iteration: t + 1,
                leader: alg.leader(),
                leader_share: alg.leader_share(),
                entropy: mwu_core::trace::entropy(&probs),
                comm: CommDelta::between(&comm_before, &alg.comm_stats()),
                reward: RewardSummary::of(&rewards),
            });
            if alg.has_converged() && !convergence_reported {
                convergence_reported = true;
                observer.on_convergence(ConvergenceEvent {
                    iteration: t + 1,
                    leader: alg.leader(),
                    leader_share: alg.leader_share(),
                });
            }
        }

        checkpoint_hook(CheckpointArgs {
            alg,
            iteration: t + 1,
            probes: probes_total,
            rng,
            convergence_reported,
            force: false,
        })?;
    }

    if observer.enabled() && !halted {
        observer.on_run_end(RunOutcome {
            algorithm: alg.name(),
            iterations,
            converged: alg.has_converged(),
            leader: alg.leader(),
            leader_share: alg.leader_share(),
            cpu_iterations: iterations as u64 * alg.cpus_per_iteration() as u64,
            pulls: probes_total,
            comm: alg.comm_stats(),
            cpus_per_iteration: alg.cpus_per_iteration(),
        });
    }

    let outcome = RepairOutcome {
        repair: found,
        iterations,
        probes: probes_total,
        cost: match ledger {
            Some(l) => l.snapshot(),
            None => fallback_cost(scenario, probes_total, iterations),
        },
        leader_arm: alg.leader() + 1,
        mwu_converged: alg.has_converged(),
    };
    Ok((outcome, halted))
}

/// Cost attribution when no ledger is shared: every probe costs one full
/// suite run, and each iteration's parallel phase contributes one full run
/// to the critical path. Uses *absolute* totals so a resumed run reports
/// the same cost as an uninterrupted one.
fn fallback_cost(
    scenario: &BugScenario,
    probes_total: u64,
    iterations: usize,
) -> apr_sim::ledger::CostSnapshot {
    apr_sim::ledger::CostSnapshot {
        fitness_evals: probes_total,
        simulated_ms: probes_total * scenario.suite.full_run_cost_ms(),
        critical_path_ms: iterations as u64 * scenario.suite.full_run_cost_ms(),
    }
}

/// When and where [`repair_resumable`] persists checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Destination file (written atomically via tmp + rename).
    pub path: PathBuf,
    /// Write a checkpoint once at least this many probes have been issued
    /// since the last one. `0` checkpoints after every update cycle.
    pub every_probes: u64,
}

impl CheckpointPolicy {
    /// Checkpoint to `path` every `every_probes` probes.
    pub fn new(path: impl Into<PathBuf>, every_probes: u64) -> Self {
        Self {
            path: path.into(),
            every_probes,
        }
    }
}

/// Session controls for [`repair_resumable`]: checkpoint cadence and an
/// optional cooperative halt (used by tests and the chaos harness to model
/// a kill at a known point).
#[derive(Debug, Clone, Default)]
pub struct SessionControl {
    /// Persist checkpoints per this policy. `None`: never write to disk
    /// (halting still returns an in-memory [`Checkpoint`]).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Stop after this many update cycles *in this session* and return
    /// [`SessionResult::Halted`]. `None`: run to completion.
    pub halt_after_iterations: Option<usize>,
}

/// How a [`repair_resumable`] session ended.
#[derive(Debug, Clone)]
pub enum SessionResult {
    /// The run finished: a repair was found or `max_iterations` elapsed.
    Complete(RepairOutcome),
    /// The session halted cooperatively; `checkpoint` resumes it.
    Halted {
        /// State at the halt point (also written to the policy path, if any).
        checkpoint: Box<Checkpoint>,
    },
}

impl SessionResult {
    /// The outcome, if the run completed.
    pub fn outcome(self) -> Option<RepairOutcome> {
        match self {
            SessionResult::Complete(o) => Some(o),
            SessionResult::Halted { .. } => None,
        }
    }
}

/// [`repair_observed`] with crash-safe checkpoint / resume.
///
/// Starting fresh: pass `resume: None`; `alg` is used as constructed.
/// Resuming: pass the loaded [`Checkpoint`]; `alg`'s state is *overwritten*
/// from it (the caller constructs any instance of the right variant and
/// arm count), the master RNG continues from its saved position, and the
/// absolute iteration / probe counters carry over, so the completed run's
/// [`RepairOutcome`] is identical to an uninterrupted same-seed run. If a
/// `ledger` is shared, its totals are restored from the checkpoint too.
///
/// Checkpoints are written per `session.checkpoint` after completed update
/// cycles; a cooperative halt (`session.halt_after_iterations`) always
/// writes a final checkpoint before returning [`SessionResult::Halted`].
#[allow(clippy::too_many_arguments)]
pub fn repair_resumable<A, O>(
    scenario: &BugScenario,
    pool: &MutationPool,
    alg: &mut A,
    config: &MwRepairConfig,
    ledger: Option<&CostLedger>,
    observer: &mut O,
    session: &SessionControl,
    resume: Option<&Checkpoint>,
) -> Result<SessionResult, CheckpointError>
where
    A: MwuAlgorithm + serde::Serialize + serde::Deserialize,
    O: Observer,
{
    let (start_iteration, init_probes, init_convergence_reported, mut rng) = match resume {
        Some(ck) => {
            ck.validate_against(alg.name(), config)?;
            *alg = ck.restore_algorithm()?;
            if let Some(l) = ledger {
                l.restore(ck.cost);
            }
            (
                ck.iteration,
                ck.probes,
                ck.convergence_reported,
                ck.restore_rng(),
            )
        }
        None => (0, 0, false, SmallRng::seed_from_u64(config.seed)),
    };

    let mut last_saved: Option<Checkpoint> = None;
    let mut probes_at_last_save = init_probes;
    let policy = session.checkpoint.as_ref();
    let (outcome, halted) = {
        let last_saved = &mut last_saved;
        let probes_at_last_save = &mut probes_at_last_save;
        run_loop(
            scenario,
            pool,
            alg,
            config,
            ledger,
            observer,
            &mut rng,
            start_iteration,
            init_probes,
            init_convergence_reported,
            session.halt_after_iterations,
            |args: CheckpointArgs<'_, A>| {
                let due = match policy {
                    Some(p) => args.probes - *probes_at_last_save >= p.every_probes,
                    None => false,
                };
                if !(due || args.force) {
                    return Ok(());
                }
                let cost = match ledger {
                    Some(l) => l.snapshot(),
                    None => fallback_cost(scenario, args.probes, args.iteration),
                };
                let ck = Checkpoint::capture(
                    args.alg,
                    config,
                    args.iteration,
                    args.probes,
                    args.rng,
                    cost,
                    args.convergence_reported,
                );
                if let Some(p) = policy {
                    ck.save_atomic(&p.path)?;
                }
                *probes_at_last_save = args.probes;
                *last_saved = Some(ck);
                Ok(())
            },
        )?
    };

    if halted {
        let checkpoint = last_saved.expect("halt always captures a checkpoint");
        Ok(SessionResult::Halted {
            checkpoint: Box::new(checkpoint),
        })
    } else {
        Ok(SessionResult::Complete(outcome))
    }
}

/// Which MWU variant drives the online phase (convenience for binaries and
/// examples that pick a variant by name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VariantChoice {
    /// Standard MWU (one agent per arm).
    Standard,
    /// Slate MWU (slate-sized agent team).
    Slate,
    /// Distributed MWU (population of agents).
    Distributed,
}

impl VariantChoice {
    /// Parse from a CLI-style name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "standard" => Some(VariantChoice::Standard),
            "slate" => Some(VariantChoice::Slate),
            "distributed" => Some(VariantChoice::Distributed),
            _ => None,
        }
    }
}

/// Build the chosen variant over `k` arms with paper-default parameters and
/// run the online phase. Returns `Err` if the variant is intractable at
/// this size (Distributed beyond its population cap).
pub fn repair_with_variant(
    scenario: &BugScenario,
    pool: &MutationPool,
    variant: VariantChoice,
    config: &MwRepairConfig,
    ledger: Option<&CostLedger>,
) -> Result<RepairOutcome, mwu_core::distributed::Intractable> {
    let k = effective_arms(pool.len(), config);
    Ok(match variant {
        VariantChoice::Standard => {
            let mut alg = StandardMwu::new(k, StandardConfig::default());
            repair_with_ledger(scenario, pool, &mut alg, config, ledger)
        }
        VariantChoice::Slate => {
            let mut alg = SlateMwu::new(k, SlateConfig::default());
            repair_with_ledger(scenario, pool, &mut alg, config, ledger)
        }
        VariantChoice::Distributed => {
            let mut alg = DistributedMwu::try_new(k, DistributedConfig::default())?;
            repair_with_ledger(scenario, pool, &mut alg, config, ledger)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_sim::ScenarioKind;
    use mwu_core::{SlateConfig, SlateMwu};

    fn small_scenario() -> (BugScenario, MutationPool) {
        let s = BugScenario::custom(
            "driver-test",
            ScenarioKind::Synthetic,
            60,
            12,
            400,
            15,
            0.06,
            21,
        );
        let pool = s.build_pool(1, None);
        (s, pool)
    }

    #[test]
    fn probe_cost_hint_comes_from_the_plan() {
        // Arm i composes i + 1 members, clamped to the pool.
        assert_eq!(
            probe_cost_hint(&[0, 0], 100),
            PROBE_BASE_NS + PROBE_NS_PER_MEMBER
        );
        assert_eq!(
            probe_cost_hint(&[9, 499], 100),
            PROBE_BASE_NS + PROBE_NS_PER_MEMBER * (10 + 100) / 2
        );
        assert_eq!(probe_cost_hint(&[], 100), PROBE_BASE_NS);
    }

    #[test]
    fn finds_repair_and_terminates_early() {
        let (s, pool) = small_scenario();
        let mut alg = SlateMwu::new(pool.len(), SlateConfig::default());
        let out = repair(&s, &pool, &mut alg, &MwRepairConfig::seeded(3));
        assert!(
            out.is_repaired(),
            "no repair in {} iterations",
            out.iterations
        );
        let rep = out.repair.unwrap();
        assert_eq!(rep.mutations.len(), rep.arm);
        // The reported composition really does repair.
        let verify = s.evaluate(&rep.mutations, None);
        assert!(verify.repaired, "reported repair does not reproduce");
        assert!(out.iterations < 10_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let (s, pool) = small_scenario();
        let run = |seed| {
            let mut alg = SlateMwu::new(pool.len(), SlateConfig::default());
            repair(&s, &pool, &mut alg, &MwRepairConfig::seeded(seed))
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.repair, b.repair);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.probes, b.probes);
    }

    #[test]
    fn density_proxy_biases_leader_toward_optimum() {
        // Run without repairs (repair_rate 0) so the bandit runs long
        // enough to learn; the leader arm should approach the scenario's
        // density optimum rather than x=1.
        let s = BugScenario::custom(
            "no-repair",
            ScenarioKind::Synthetic,
            80,
            16,
            400,
            15,
            0.0,
            22,
        );
        let pool = s.build_pool(1, None);
        let mut alg = SlateMwu::new(pool.len(), SlateConfig::default());
        let cfg = MwRepairConfig {
            max_iterations: 3000,
            seed: 9,
            reward: RewardMode::DensityProxy,
            max_composition: 512,
        };
        let out = repair(&s, &pool, &mut alg, &cfg);
        assert!(out.repair.is_none());
        let opt = s.density_optimum();
        assert!(
            out.leader_arm >= opt / 3 && out.leader_arm <= opt * 3,
            "leader {} vs optimum {opt}",
            out.leader_arm
        );
    }

    #[test]
    fn fitness_retained_reward_drives_leader_small() {
        let s = BugScenario::custom("ablate", ScenarioKind::Synthetic, 80, 16, 400, 15, 0.0, 23);
        let pool = s.build_pool(1, None);
        let mut alg = SlateMwu::new(pool.len(), SlateConfig::default());
        let cfg = MwRepairConfig {
            max_iterations: 3000,
            seed: 9,
            reward: RewardMode::FitnessRetained,
            max_composition: 512,
        };
        let out = repair(&s, &pool, &mut alg, &cfg);
        // Monotone reward ⇒ small compositions dominate.
        assert!(
            out.leader_arm < s.density_optimum(),
            "leader {} not below optimum {}",
            out.leader_arm,
            s.density_optimum()
        );
    }

    #[test]
    fn variant_choice_parses() {
        assert_eq!(
            VariantChoice::parse("Standard"),
            Some(VariantChoice::Standard)
        );
        assert_eq!(VariantChoice::parse("slate"), Some(VariantChoice::Slate));
        assert_eq!(
            VariantChoice::parse("DISTRIBUTED"),
            Some(VariantChoice::Distributed)
        );
        assert_eq!(VariantChoice::parse("genprog"), None);
    }

    #[test]
    fn all_variants_can_repair_small_scenario() {
        let (s, pool) = small_scenario();
        for v in [
            VariantChoice::Standard,
            VariantChoice::Slate,
            VariantChoice::Distributed,
        ] {
            let out = repair_with_variant(&s, &pool, v, &MwRepairConfig::seeded(4), None).unwrap();
            assert!(out.is_repaired(), "{v:?} failed to repair");
        }
    }

    #[test]
    fn ledger_accounts_probes() {
        let (s, pool) = small_scenario();
        let ledger = CostLedger::new();
        let mut alg = SlateMwu::new(pool.len(), SlateConfig::default());
        let out = repair_with_ledger(
            &s,
            &pool,
            &mut alg,
            &MwRepairConfig::seeded(3),
            Some(&ledger),
        );
        assert_eq!(ledger.fitness_evals(), out.probes);
        assert!(ledger.critical_path_ms() <= ledger.simulated_ms());
    }

    #[test]
    fn halted_and_resumed_run_matches_uninterrupted() {
        // A scenario with repair_rate 0 runs the full horizon, so the
        // comparison exercises every iteration including convergence.
        let s = BugScenario::custom("resume", ScenarioKind::Synthetic, 60, 12, 300, 15, 0.0, 31);
        let pool = s.build_pool(1, None);
        let cfg = MwRepairConfig {
            max_iterations: 120,
            seed: 17,
            reward: RewardMode::DensityProxy,
            max_composition: 512,
        };
        let arms = effective_arms(pool.len(), &cfg);

        let mut alg = SlateMwu::new(arms, SlateConfig::default());
        let uninterrupted = repair(&s, &pool, &mut alg, &cfg);

        // Kill after 40 iterations, then resume from the in-memory
        // checkpoint with a *fresh* algorithm instance.
        let mut alg1 = SlateMwu::new(arms, SlateConfig::default());
        let session = SessionControl {
            checkpoint: None,
            halt_after_iterations: Some(40),
        };
        let halted = repair_resumable(
            &s,
            &pool,
            &mut alg1,
            &cfg,
            None,
            &mut NullObserver,
            &session,
            None,
        )
        .unwrap();
        let ck = match halted {
            SessionResult::Halted { checkpoint } => checkpoint,
            SessionResult::Complete(_) => panic!("expected halt at 40 iterations"),
        };
        assert_eq!(ck.iteration, 40);

        let mut alg2 = SlateMwu::new(arms, SlateConfig::default());
        let resumed = repair_resumable(
            &s,
            &pool,
            &mut alg2,
            &cfg,
            None,
            &mut NullObserver,
            &SessionControl::default(),
            Some(&ck),
        )
        .unwrap()
        .outcome()
        .expect("resumed run should complete");

        assert_eq!(resumed, uninterrupted);
    }

    #[test]
    fn resume_via_checkpoint_file_round_trip() {
        // Repair-free scenario so the halt point is always reached.
        let s = BugScenario::custom(
            "resume-io",
            ScenarioKind::Synthetic,
            60,
            12,
            300,
            15,
            0.0,
            33,
        );
        let pool = s.build_pool(1, None);
        let cfg = MwRepairConfig {
            max_iterations: 30,
            seed: 3,
            reward: RewardMode::DensityProxy,
            max_composition: 512,
        };
        let arms = effective_arms(pool.len(), &cfg);

        let mut alg = SlateMwu::new(arms, SlateConfig::default());
        let uninterrupted = repair(&s, &pool, &mut alg, &cfg);

        let dir = std::env::temp_dir().join(format!("mwr-resume-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.ckpt");

        // Checkpoint to disk every 8 probes; halt after 2 iterations.
        let mut alg1 = SlateMwu::new(arms, SlateConfig::default());
        let session = SessionControl {
            checkpoint: Some(CheckpointPolicy::new(&path, 8)),
            halt_after_iterations: Some(2),
        };
        let halted = repair_resumable(
            &s,
            &pool,
            &mut alg1,
            &cfg,
            None,
            &mut NullObserver,
            &session,
            None,
        )
        .unwrap();
        assert!(matches!(halted, SessionResult::Halted { .. }));

        // Resume purely from the file, as the binaries do.
        let ck = crate::checkpoint::Checkpoint::load(&path).unwrap();
        let mut alg2 = SlateMwu::new(arms, SlateConfig::default());
        let resumed = repair_resumable(
            &s,
            &pool,
            &mut alg2,
            &cfg,
            None,
            &mut NullObserver,
            &SessionControl::default(),
            Some(&ck),
        )
        .unwrap()
        .outcome()
        .unwrap();

        assert_eq!(resumed, uninterrupted);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let (s, pool) = small_scenario();
        let cfg = MwRepairConfig::seeded(3);
        let arms = effective_arms(pool.len(), &cfg);
        let mut alg = SlateMwu::new(arms, SlateConfig::default());
        let session = SessionControl {
            checkpoint: None,
            // Halt before the first iteration: always reachable, even when
            // the scenario repairs immediately.
            halt_after_iterations: Some(0),
        };
        let SessionResult::Halted { checkpoint } = repair_resumable(
            &s,
            &pool,
            &mut alg,
            &cfg,
            None,
            &mut NullObserver,
            &session,
            None,
        )
        .unwrap() else {
            panic!("expected halt");
        };
        let other_cfg = MwRepairConfig::seeded(4);
        let mut alg2 = SlateMwu::new(arms, SlateConfig::default());
        assert!(repair_resumable(
            &s,
            &pool,
            &mut alg2,
            &other_cfg,
            None,
            &mut NullObserver,
            &SessionControl::default(),
            Some(&checkpoint),
        )
        .is_err());
    }

    #[test]
    #[should_panic]
    fn arm_mismatch_panics() {
        let (s, pool) = small_scenario();
        let mut alg = SlateMwu::new(pool.len() + 1, SlateConfig::default());
        let _ = repair(&s, &pool, &mut alg, &MwRepairConfig::seeded(0));
    }
}
