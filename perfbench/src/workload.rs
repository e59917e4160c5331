//! The three workloads and the inputs each one generates from the seed.
//!
//! The daemon workloads are closed batches: the whole job set is handed
//! to `Daemon::submit_bytes` before `Daemon::run`, as `mwrepaird --jobs`
//! does (the daemon has no arrival-driven mode, so there is no rate axis).
//! Why each workload exists is recorded in `perfbench/README.md`.

use mwrepair::VariantChoice;
use mwrepair_service::{encode_line, BudgetSpec, JobLine, JobSpec, ScenarioSpec};
use mwu_datasets::Dataset;
use mwu_experiments::GridConfig;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many tiny sessions: persistence and encoding dominate.
    ServiceChurn,
    /// Few long sessions over the paper's catalog: fitness evaluation dominates.
    ServiceRepair,
    /// The Tables II–IV grid: MWU round kernels and the worker pool only.
    PaperGrid,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "service-churn" => Some(Workload::ServiceChurn),
            "service-repair" => Some(Workload::ServiceRepair),
            "paper-grid" => Some(Workload::PaperGrid),
            _ => None,
        }
    }

    pub fn is_service(self) -> bool {
        self != Workload::PaperGrid
    }
}

/// `service-churn`: sessions in one batch.
const CHURN_SESSIONS: usize = 2000;
/// `service-churn`: tenants the sessions are spread over.
const CHURN_TENANTS: usize = 50;
/// `service-churn`: update cycles per session per round.
pub const CHURN_SLICE: usize = 4;

/// `service-repair`: sessions in one batch (twelve per catalog scenario).
const REPAIR_SESSIONS: usize = 120;
/// `service-repair`: update-cycle cap of every session.
const REPAIR_MAX_ITERATIONS: usize = 60;
/// `service-repair`: update cycles per session per round.
pub const REPAIR_SLICE: usize = 16;

/// The paper's catalog scenarios `service-repair` cycles through.
const CATALOG: [&str; 10] = [
    "units",
    "gzip-2009-08-16",
    "gzip-2009-09-26",
    "libtiff-2005-12-14",
    "lighttpd-1806-1807",
    "Chart26",
    "Closure13",
    "Closure22",
    "Math8",
    "Math80",
];

/// `paper-grid` datasets. Left out, with the cost measured for each:
/// random1024 (its Distributed cell was 68 % of the grid's time), units
/// (17.6 s per 30 replicates), gzip-2009-08-16 (53 s per 30) and
/// random4096 (261 s per 30).
pub const GRID_DATASETS: [&str; 9] = [
    "random256",
    "unimodal1024",
    "libtiff-2005-12-14",
    "lighttpd-1806-1807",
    "Chart26",
    "Closure13",
    "Closure22",
    "Math8",
    "Math80",
];

/// `paper-grid`: replicates per (variant, dataset) cell.
const GRID_REPLICATES: usize = 100;

/// Six small synthetic scenario families (the `loadgen` mix); sessions
/// cycle through them, so each pool-cache entry serves a sixth of them.
fn churn_families(seed: u64) -> Vec<ScenarioSpec> {
    (0..6u64)
        .map(|f| ScenarioSpec::Synthetic {
            name: format!("load-family-{f}"),
            options: 16 + 2 * f as usize,
            x_star: 4 + f as usize,
            statements: 150 + 25 * f as usize,
            tests: 8 + (f as usize % 3),
            // Pools hold ~options mutations, so the repairing families
            // need a rate ≳ 1/options to actually contain a repairer.
            repair_rate: if f % 2 == 0 { 0.0 } else { 0.05 },
            world_seed: seed.wrapping_add(100 + f),
            pool_size: Some(16 + 2 * f as usize),
        })
        .collect()
}

fn push_line(doc: &mut String, line: JobLine) {
    doc.push_str(&encode_line(&line));
    doc.push('\n');
}

/// The `service-churn` batch: Standard / Slate / Distributed sessions over
/// the six families and fifty tenants, with tenant `t000` under-budgeted
/// so the budget path runs too.
fn churn_batch(seed: u64) -> Vec<u8> {
    let families = churn_families(seed);
    let mut doc = String::new();
    push_line(
        &mut doc,
        JobLine::Budget(BudgetSpec {
            tenant: "t000".into(),
            max_evals: Some(1_500),
            max_ms: None,
        }),
    );
    for i in 0..CHURN_SESSIONS {
        let algorithm = match i % 10 {
            3 => VariantChoice::Distributed,
            n if n % 2 == 0 => VariantChoice::Standard,
            _ => VariantChoice::Slate,
        };
        // Distributed probes its whole population each cycle, so it gets a
        // lower cycle cap for comparable per-session work.
        let max_iterations = if algorithm == VariantChoice::Distributed {
            6 + i % 5
        } else {
            10 + (i * 11) % 21
        };
        let job = JobSpec {
            id: format!("job-{i:05}"),
            tenant: format!("t{:03}", i % CHURN_TENANTS),
            scenario: families[i % families.len()].clone(),
            algorithm,
            seed: seed.wrapping_mul(1_000_000_007).wrapping_add(i as u64),
            max_iterations,
        };
        push_line(&mut doc, JobLine::Job(job));
    }
    doc.into_bytes()
}

/// The `service-repair` batch: every catalog scenario under Standard and
/// Slate. Distributed is left out: one run with it took 107–114 s.
fn repair_batch(seed: u64) -> Vec<u8> {
    let mut doc = String::new();
    for i in 0..REPAIR_SESSIONS {
        let algorithm = if (i / CATALOG.len()).is_multiple_of(2) {
            VariantChoice::Standard
        } else {
            VariantChoice::Slate
        };
        let job = JobSpec {
            id: format!("repair-{i:03}"),
            tenant: format!("r{:02}", i % 10),
            scenario: ScenarioSpec::Catalog {
                name: CATALOG[i % CATALOG.len()].into(),
            },
            algorithm,
            seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64),
            max_iterations: REPAIR_MAX_ITERATIONS,
        };
        push_line(&mut doc, JobLine::Job(job));
    }
    doc.into_bytes()
}

/// The JSONL batch a service workload submits, and its slice length.
pub fn service_batch(workload: Workload, seed: u64) -> (Vec<u8>, usize) {
    match workload {
        Workload::ServiceChurn => (churn_batch(seed), CHURN_SLICE),
        Workload::ServiceRepair => (repair_batch(seed), REPAIR_SLICE),
        Workload::PaperGrid => unreachable!("paper-grid submits no jobs"),
    }
}

/// Build the `paper-grid` datasets (the grid's set-up step).
pub fn grid_datasets() -> Vec<Dataset> {
    let all = mwu_datasets::catalog::full_catalog();
    GRID_DATASETS
        .iter()
        .map(|name| {
            all.iter()
                .find(|d| d.name == *name)
                .unwrap_or_else(|| panic!("dataset {name} is in the catalog"))
                .clone()
        })
        .collect()
}

/// The grid configuration: the paper's 10 000-cycle cap, seeded per run.
pub fn grid_config(seed: u64) -> GridConfig {
    GridConfig {
        replicates: GRID_REPLICATES,
        max_iterations: 10_000,
        seed: seed
            .wrapping_mul(0xD1B5_4A32_D192_ED03)
            .wrapping_add(0xEED5),
    }
}
