//! The traced run: per-layer metrics, timed from outside each layer.
//!
//! Every workload prints the same per-layer names; a layer the workload
//! never calls reads 0. The end-to-end metrics never come from here.

use crate::counting_vfs::{CountingVfs, METHODS, WRITERS};
use crate::runs::{
    daemon_config, finish_service_run, median, run_grid, run_service, ServiceRun, WorkDirs,
};
use crate::timed_alg::{KernelTimes, Timed};
use crate::workload::{self, Workload};
use crate::Outcome;
use apr_sim::{BugScenario, CostLedger, MutationPool};
use mwrepair::{effective_arms, repair_observed, MwRepairConfig, RepairOutcome, VariantChoice};
use mwrepair_service::{parse_jobs, Daemon, JobSpec, RealVfs, SessionReport, SessionStatus};
use mwu_core::stats::RunningStats;
use mwu_core::trace::NullObserver;
use mwu_core::{
    run_to_convergence, DistributedConfig, DistributedMwu, MwuAlgorithm, RunConfig, RunOutcome,
    SlateConfig, SlateMwu, StandardConfig, StandardMwu, Variant,
};
use mwu_experiments::replicate_seed;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Variants in the order the grid runs them.
const VARIANTS: [Variant; 3] = [Variant::Standard, Variant::Distributed, Variant::Slate];

/// Rounds the interrupted run gets before it is reopened.
const RECOVERY_HALT_ROUNDS: u64 = 2;

/// `parse_jobs` repetitions whose median is `protocol.parse_ms`.
const PARSE_REPS: usize = 5;

fn variant_key(v: Variant) -> &'static str {
    match v {
        Variant::Standard => "standard",
        Variant::Slate => "slate",
        Variant::Distributed => "distributed",
    }
}

/// The fixed per-layer metric list, in print order.
fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("protocol.parse_ms", "ms"),
        ("protocol.lines", "count"),
        ("apr.pool_build_ms", "ms"),
        ("apr.pool_mutations", "count"),
        ("apr.pool_candidates", "count"),
        ("apr.pool_yield", "ratio"),
        ("daemon.open_ms", "ms"),
        ("daemon.submit_ms", "ms"),
        ("daemon.run_ms", "ms"),
        ("daemon.rounds", "count"),
        ("daemon.barriers", "count"),
        ("daemon.barrier_total_ms", "ms"),
        ("daemon.barrier_max_ms", "ms"),
        ("daemon.syncs_batched", "count"),
        ("daemon.io_retries", "count"),
        ("daemon.quarantined", "count"),
        ("daemon.budget_exhausted", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for m in METHODS {
        v.push((format!("vfs.{m}.calls"), "count"));
        v.push((format!("vfs.{m}.ms"), "ms"));
    }
    for m in WRITERS {
        v.push((format!("vfs.{m}.bytes"), "bytes"));
    }
    v.push(("vfs.busy_ms".into(), "ms"));
    v.push(("vfs.calls_per_session".into(), "calls/session"));
    v.push(("vfs.write_amplification".into(), "ratio"));
    for (n, u) in [
        ("replayed", "count"),
        ("replay_ms", "ms"),
        ("plan_ms", "ms"),
        ("update_ms", "ms"),
        ("probe_self_ms", "ms"),
        ("probes", "count"),
        ("iterations", "count"),
    ] {
        v.push((format!("mwrepair.{n}"), u));
    }
    for variant in VARIANTS {
        for (n, u) in [
            ("plan_ms", "ms"),
            ("update_ms", "ms"),
            ("self_ms", "ms"),
            ("iterations", "count"),
            ("pulls", "count"),
        ] {
            v.push((format!("core.{}.{n}", variant_key(variant)), u));
        }
    }
    for (n, u) in [
        ("pool.serial_s", "s"),
        ("pool.efficiency", "ratio"),
        ("pool.repair_efficiency", "ratio"),
        ("trace.overhead", "ratio"),
        ("recovery.open_ms", "ms"),
        ("recovery.read_calls", "count"),
        ("recovery.file_len_calls", "count"),
        ("recovery.truncate_calls", "count"),
        ("recovery.exists_calls", "count"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// The per-layer values being filled in; every name starts at 0.
struct Layers {
    values: Vec<(String, &'static str, f64)>,
}

impl Layers {
    fn new() -> Self {
        Layers {
            values: layer_metrics()
                .into_iter()
                .map(|(n, u)| (n, u, 0.0))
                .collect(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.2 = value;
    }
}

/// Run `workload` traced and return its per-layer metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    dirs: &mut WorkDirs,
    nproc: usize,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut layers = Layers::new();
    if workload.is_service() {
        service(workload, seed, dirs, nproc, &mut layers, &mut out)?;
    } else {
        grid(seed, nproc, &mut layers, &mut out)?;
    }
    for (name, unit, value) in layers.values {
        out.put(name, value, unit);
    }
    Ok(out)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel account of the serial re-runs of one variant.
#[derive(Default)]
struct VariantAccount {
    times: KernelTimes,
    wall_ms: f64,
}

fn put_core(layers: &mut Layers, accounts: &HashMap<&'static str, VariantAccount>) {
    for (key, a) in accounts {
        let plan = a.times.plan_ns as f64 / 1e6;
        let update = a.times.update_ns as f64 / 1e6;
        layers.set(&format!("core.{key}.plan_ms"), plan);
        layers.set(&format!("core.{key}.update_ms"), update);
        layers.set(&format!("core.{key}.self_ms"), a.wall_ms - plan - update);
        layers.set(&format!("core.{key}.iterations"), a.times.iterations as f64);
        layers.set(&format!("core.{key}.pulls"), a.times.pulls as f64);
    }
}

fn check_same(a: &ServiceRun, b: &ServiceRun, what: &str) -> Result<(), String> {
    if a.digest != b.digest {
        return Err(format!(
            "{what}: trace/report digest {:016x} differs from {:016x}",
            b.digest, a.digest
        ));
    }
    Ok(())
}

fn service(
    workload: Workload,
    seed: u64,
    dirs: &mut WorkDirs,
    nproc: usize,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let (batch, slice) = workload::service_batch(workload, seed);

    // protocol: parse the batch the daemon is about to receive.
    let mut parse_ms = Vec::new();
    let mut parsed = None;
    for _ in 0..PARSE_REPS {
        let t = Instant::now();
        parsed = Some(parse_jobs(&batch).map_err(|e| format!("parse_jobs: {e}"))?);
        parse_ms.push(ms_since(t));
    }
    let parsed = parsed.expect("parsed at least once");
    layers.set("protocol.parse_ms", median(&parse_ms));
    layers.set(
        "protocol.lines",
        batch
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .count() as f64,
    );

    // apr: build each distinct scenario and its pool, as the daemon does.
    let mut scenarios: HashMap<String, (BugScenario, MutationPool)> = HashMap::new();
    let (mut build_ms, mut mutations, mut candidates) = (0.0, 0u64, 0u64);
    for job in &parsed.jobs {
        let key = job.scenario.cache_key();
        if scenarios.contains_key(&key) {
            continue;
        }
        let t = Instant::now();
        let scenario = job
            .scenario
            .build()
            .map_err(|e| format!("{}: {e}", job.id))?;
        let pool = scenario.build_pool(1, None);
        build_ms += ms_since(t);
        mutations += pool.len() as u64;
        candidates += pool.candidates_tested();
        scenarios.insert(key, (scenario, pool));
    }
    layers.set("apr.pool_build_ms", build_ms);
    layers.set("apr.pool_mutations", mutations as f64);
    layers.set("apr.pool_candidates", candidates as f64);
    layers.set(
        "apr.pool_yield",
        mutations as f64 / candidates.max(1) as f64,
    );

    // daemon: one plain run at full width, then the same batch through
    // the counting VFS, then at one thread. All three must agree.
    let bare = run_service(&batch, slice, &dirs.fresh()?, Arc::new(RealVfs), None)?;
    let counting = Arc::new(CountingVfs::default());
    let wrapped = run_service(&batch, slice, &dirs.fresh()?, counting.clone(), None)?;
    check_same(&bare, &wrapped, "run through the counting VFS")?;
    if bare.summary.io_syncs_batched != wrapped.summary.io_syncs_batched {
        return Err(format!(
            "io_syncs_batched {} through the counting VFS, {} without it",
            wrapped.summary.io_syncs_batched, bare.summary.io_syncs_batched
        ));
    }
    let serial_dir = dirs.fresh()?;
    let serial = rayon::with_max_threads(1, || {
        run_service(&batch, slice, &serial_dir, Arc::new(RealVfs), None)
    })?;
    check_same(&bare, &serial, "one-thread run")?;
    for r in [&bare, &wrapped, &serial] {
        out.attempted += r.summary.sessions as u64;
        out.failed += r.failed;
    }
    out.note("digest", format!("{:016x}", bare.digest));

    let s = &bare.summary;
    layers.set("daemon.open_ms", bare.open_ms);
    layers.set("daemon.submit_ms", bare.submit_ms);
    layers.set("daemon.run_ms", bare.run_s * 1e3);
    layers.set("daemon.rounds", s.rounds as f64);
    layers.set("daemon.barriers", s.sync_barrier.count as f64);
    layers.set("daemon.barrier_total_ms", s.sync_barrier.total_ms);
    layers.set("daemon.barrier_max_ms", s.sync_barrier.max_ms);
    layers.set("daemon.syncs_batched", s.io_syncs_batched as f64);
    layers.set("daemon.io_retries", s.io_retries as f64);
    layers.set("daemon.quarantined", s.sessions_quarantined as f64);
    layers.set("daemon.budget_exhausted", s.budget_exhausted as f64);

    // vfs: the counting run's per-method totals.
    let (mut calls, mut busy_ms, mut handed) = (0u64, 0.0, 0u64);
    for m in METHODS {
        let t = counting.totals(m);
        layers.set(&format!("vfs.{m}.calls"), t.calls as f64);
        layers.set(&format!("vfs.{m}.ms"), t.ms);
        calls += t.calls;
        busy_ms += t.ms;
        handed += t.bytes;
    }
    for m in WRITERS {
        layers.set(&format!("vfs.{m}.bytes"), counting.totals(m).bytes as f64);
    }
    layers.set("vfs.busy_ms", busy_ms);
    layers.set(
        "vfs.calls_per_session",
        calls as f64 / wrapped.summary.sessions.max(1) as f64,
    );
    layers.set(
        "vfs.write_amplification",
        handed as f64 / wrapped.output_bytes.max(1) as f64,
    );

    // mwrepair: serial replays of completed sessions, bare and wrapped.
    let stride = match workload {
        // Co-prime with the batch's variant, family and tenant cycles.
        Workload::ServiceChurn => 37,
        _ => 1,
    };
    let sample: Vec<&(JobSpec, SessionReport)> = bare
        .reports
        .iter()
        .step_by(stride)
        .filter(|(_, r)| r.status == SessionStatus::Completed)
        .collect();
    let mut accounts: HashMap<&'static str, VariantAccount> = HashMap::new();
    let (mut bare_ms, mut wrapped_ms) = (0.0, 0.0);
    let (mut probes, mut iterations) = (0u64, 0u64);
    rayon::with_max_threads(1, || -> Result<(), String> {
        for (i, (job, report)) in sample.iter().enumerate() {
            let data = &scenarios[&job.scenario.cache_key()];
            let replay = replay_session(job, &data.0, &data.1, i % 2 == 0);
            if Some(&replay.wrapped) != report.outcome.as_ref() {
                return Err(format!("replay of {} differs from its report.json", job.id));
            }
            if replay.bare != replay.wrapped {
                return Err(format!("bare and timed replays of {} differ", job.id));
            }
            bare_ms += replay.bare_ms;
            wrapped_ms += replay.wrapped_ms;
            probes += replay.wrapped.probes;
            iterations += replay.wrapped.iterations as u64;
            let a = accounts.entry(replay.variant).or_default();
            a.times.add(&replay.times);
            a.wall_ms += replay.wrapped_ms;
        }
        Ok(())
    })?;
    let (plan, update) = accounts.values().fold((0.0, 0.0), |(p, u), a| {
        (
            p + a.times.plan_ns as f64 / 1e6,
            u + a.times.update_ns as f64 / 1e6,
        )
    });
    layers.set("mwrepair.replayed", sample.len() as f64);
    layers.set("mwrepair.replay_ms", wrapped_ms);
    layers.set("mwrepair.plan_ms", plan);
    layers.set("mwrepair.update_ms", update);
    layers.set("mwrepair.probe_self_ms", wrapped_ms - plan - update);
    layers.set("mwrepair.probes", probes as f64);
    layers.set("mwrepair.iterations", iterations as f64);
    put_core(layers, &accounts);
    out.note(
        "replay_sample",
        format!(
            "{} completed sessions of {}, taking every {stride}",
            sample.len(),
            bare.reports.len()
        ),
    );

    // pool: the one-thread run against the full-width one.
    layers.set("pool.serial_s", serial.run_s);
    layers.set(
        "pool.efficiency",
        serial.run_s / (nproc as f64 * bare.run_s),
    );
    if sample.len() == bare.reports.len() {
        layers.set(
            "pool.repair_efficiency",
            wrapped_ms / (nproc as f64 * bare.run_s * 1e3),
        );
    }
    layers.set("trace.overhead", wrapped_ms / bare_ms - 1.0);

    recovery(&batch, slice, &dirs.fresh()?, &bare, layers, out)?;
    Ok(())
}

/// Halt a run after a few rounds, reopen its work directory through the
/// counting VFS, and finish it: the reopen's read path, and the final
/// bytes, which must match the uninterrupted run.
fn recovery(
    batch: &[u8],
    slice: usize,
    workdir: &Path,
    uninterrupted: &ServiceRun,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let halted = run_service(
        batch,
        slice,
        workdir,
        Arc::new(RealVfs),
        Some(RECOVERY_HALT_ROUNDS),
    )?;
    if halted.summary.halted_active == 0 {
        return Err("the interrupted run finished before its halt".into());
    }
    let counting = Arc::new(CountingVfs::default());
    let t = Instant::now();
    let mut daemon = Daemon::open(daemon_config(workdir, slice, counting.clone()))
        .map_err(|e| format!("reopen: {e}"))?;
    let open_ms = ms_since(t);
    layers.set("recovery.open_ms", open_ms);
    layers.set("recovery.read_calls", counting.totals("read").calls as f64);
    layers.set(
        "recovery.file_len_calls",
        counting.totals("file_len").calls as f64,
    );
    layers.set(
        "recovery.truncate_calls",
        counting.totals("truncate_sync").calls as f64,
    );
    layers.set(
        "recovery.exists_calls",
        counting.totals("exists").calls as f64,
    );
    let t = Instant::now();
    let summary = daemon.run().map_err(|e| format!("resumed run: {e}"))?;
    let resumed = finish_service_run(
        &daemon,
        summary,
        open_ms,
        0.0,
        t.elapsed().as_secs_f64(),
        false,
    )?;
    check_same(uninterrupted, &resumed, "halted and resumed run")?;
    out.attempted += resumed.summary.sessions as u64;
    out.failed += resumed.failed;
    Ok(())
}

struct Replay {
    variant: &'static str,
    bare: RepairOutcome,
    wrapped: RepairOutcome,
    bare_ms: f64,
    wrapped_ms: f64,
    times: KernelTimes,
}

/// Re-run one session from scratch, bare and through [`Timed`], with the
/// configuration the daemon gives it.
fn replay_session(
    job: &JobSpec,
    scenario: &BugScenario,
    pool: &MutationPool,
    bare_first: bool,
) -> Replay {
    let mut config = MwRepairConfig::seeded(job.seed);
    config.max_iterations = job.max_iterations;
    let arms = effective_arms(pool.len(), &config);
    let (s, p, c) = (scenario, pool, &config);
    match job.algorithm {
        VariantChoice::Standard => replay_both(
            "standard",
            || StandardMwu::new(arms, StandardConfig::default()),
            s,
            p,
            c,
            bare_first,
        ),
        VariantChoice::Slate => replay_both(
            "slate",
            || SlateMwu::new(arms, SlateConfig::default()),
            s,
            p,
            c,
            bare_first,
        ),
        VariantChoice::Distributed => replay_both(
            "distributed",
            || DistributedMwu::new(arms, DistributedConfig::default()),
            s,
            p,
            c,
            bare_first,
        ),
    }
}

fn repair_once<A: MwuAlgorithm>(
    alg: &mut A,
    scenario: &BugScenario,
    pool: &MutationPool,
    config: &MwRepairConfig,
) -> (RepairOutcome, f64) {
    let ledger = CostLedger::new();
    let t = Instant::now();
    let outcome = repair_observed(
        scenario,
        pool,
        alg,
        config,
        Some(&ledger),
        &mut NullObserver,
    );
    (outcome, ms_since(t))
}

fn replay_both<A: MwuAlgorithm>(
    variant: &'static str,
    make: impl Fn() -> A,
    scenario: &BugScenario,
    pool: &MutationPool,
    config: &MwRepairConfig,
    bare_first: bool,
) -> Replay {
    let mut bare_alg = make();
    let mut timed = Timed::new(make());
    let ((bare, bare_ms), (wrapped, wrapped_ms)) = if bare_first {
        let b = repair_once(&mut bare_alg, scenario, pool, config);
        (b, repair_once(&mut timed, scenario, pool, config))
    } else {
        let w = repair_once(&mut timed, scenario, pool, config);
        (repair_once(&mut bare_alg, scenario, pool, config), w)
    };
    Replay {
        variant,
        bare,
        wrapped,
        bare_ms,
        wrapped_ms,
        times: timed.times,
    }
}

/// One grid replicate through [`Timed`] (and bare too when `with_bare`),
/// configured as the grid configures it.
fn grid_replicate<A: MwuAlgorithm>(
    make: impl Fn() -> A,
    dataset: &mwu_datasets::Dataset,
    seed: u64,
    max_iterations: usize,
    with_bare: bool,
) -> (RunOutcome, KernelTimes, f64, Option<RunOutcome>) {
    let config = RunConfig {
        max_iterations,
        seed,
        run_past_convergence: false,
    };
    let mut timed = Timed::new(make());
    let t = Instant::now();
    let outcome = run_to_convergence(&mut timed, &mut dataset.bandit(), &config);
    let wall_ms = ms_since(t);
    let bare = with_bare.then(|| run_to_convergence(&mut make(), &mut dataset.bandit(), &config));
    (outcome, timed.times, wall_ms, bare)
}

fn grid(seed: u64, nproc: usize, layers: &mut Layers, out: &mut Outcome) -> Result<(), String> {
    let datasets = workload::grid_datasets();
    let config = workload::grid_config(seed);
    let parallel = run_grid(&datasets, &config)?;
    let serial = rayon::with_max_threads(1, || run_grid(&datasets, &config))?;
    if serial.digest != parallel.digest {
        return Err("one-thread grid cells differ from the full-width ones".into());
    }
    out.attempted += parallel.replicates + serial.replicates;
    out.note("digest", format!("{:016x}", parallel.digest));

    // core: every replicate again, serially, through the timing wrapper;
    // the first replicate of each cell also bare, as a self-test.
    let mut accounts: HashMap<&'static str, VariantAccount> = HashMap::new();
    let mut timed_s = 0.0;
    let mut cells = parallel.cells.iter();
    rayon::with_max_threads(1, || -> Result<(), String> {
        for dataset in &datasets {
            let k = dataset.size();
            for variant in VARIANTS {
                let cell = cells.next().ok_or("grid returned too few cells")?;
                if cell.intractable {
                    continue;
                }
                let (mut iterations, mut accuracy, mut cpu, mut congestion) = (
                    RunningStats::new(),
                    RunningStats::new(),
                    RunningStats::new(),
                    RunningStats::new(),
                );
                let mut converged = 0u64;
                let account = accounts.entry(variant_key(variant)).or_default();
                for r in 0..config.replicates as u64 {
                    let run_seed = replicate_seed(variant, dataset, config.seed, r);
                    let max = config.max_iterations;
                    let (outcome, times, wall_ms, bare) = match variant {
                        Variant::Standard => grid_replicate(
                            || StandardMwu::new(k, StandardConfig::default()),
                            dataset,
                            run_seed,
                            max,
                            r == 0,
                        ),
                        Variant::Slate => grid_replicate(
                            || SlateMwu::new(k, SlateConfig::default()),
                            dataset,
                            run_seed,
                            max,
                            r == 0,
                        ),
                        Variant::Distributed => grid_replicate(
                            || DistributedMwu::new(k, DistributedConfig::default()),
                            dataset,
                            run_seed,
                            max,
                            r == 0,
                        ),
                    };
                    account.wall_ms += wall_ms;
                    account.times.add(&times);
                    timed_s += wall_ms / 1e3;
                    if bare.is_some_and(|b| b != outcome) {
                        return Err(format!(
                            "bare and timed runs of {} on {} differ",
                            variant_key(variant),
                            dataset.name
                        ));
                    }
                    iterations.push(outcome.iterations as f64);
                    accuracy.push(dataset.accuracy_of(outcome.leader));
                    cpu.push(outcome.cpu_iterations as f64);
                    congestion.push(outcome.comm.peak_congestion as f64);
                    converged += outcome.converged as u64;
                }
                if cell.iterations != iterations.summary()
                    || cell.accuracy != accuracy.summary()
                    || cell.cpu_iterations != cpu.summary()
                    || cell.peak_congestion != congestion.summary()
                    || cell.converged != converged
                {
                    return Err(format!(
                        "serial re-run of {} on {} differs from the grid's cell",
                        variant_key(variant),
                        dataset.name
                    ));
                }
            }
        }
        Ok(())
    })?;
    put_core(layers, &accounts);
    layers.set("pool.serial_s", serial.run_s);
    layers.set(
        "pool.efficiency",
        serial.run_s / (nproc as f64 * parallel.run_s),
    );
    layers.set("trace.overhead", timed_s / serial.run_s - 1.0);
    Ok(())
}
