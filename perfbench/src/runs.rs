//! One run of a workload through the public APIs, plus the output checks
//! every run must pass.

use mwrepair_service::{
    Daemon, DaemonConfig, DaemonSummary, JobSpec, RealVfs, SessionReport, SessionStatus, Vfs,
};
use mwu_core::trace::NullObserver;
use mwu_datasets::Dataset;
use mwu_experiments::{run_grid_observed, CellResult, GridConfig};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One daemon run of a service batch.
pub struct ServiceRun {
    pub open_ms: f64,
    pub submit_ms: f64,
    /// Wall time of `Daemon::run`.
    pub run_s: f64,
    pub summary: DaemonSummary,
    /// Digest of every session's trace and report bytes, in submission order.
    pub digest: u64,
    /// Bytes of the final trace and report files.
    pub output_bytes: u64,
    /// Fitness evaluations: Σ `report.probes`.
    pub probes: u64,
    /// Quarantined or unfinished sessions.
    pub failed: u64,
    /// Every session's job and the report the daemon published for it.
    pub reports: Vec<(JobSpec, SessionReport)>,
}

impl ServiceRun {
    pub fn setup_s(&self) -> f64 {
        (self.open_ms + self.submit_ms) / 1e3
    }

    /// Sessions whose report was published during the run.
    pub fn finished(&self) -> usize {
        self.summary.session_wall_ms.len()
    }
}

/// Fresh work directories for one benchmark process, under
/// `.bench_work/` in the checkout. Every run gets a new directory, and
/// all of them are deleted only when the process ends, so no run pays
/// for deleting an earlier run's files.
pub struct WorkDirs {
    root: PathBuf,
    next: usize,
}

impl WorkDirs {
    pub fn new(workload: &str) -> Self {
        WorkDirs {
            root: Path::new(".bench_work").join(format!("{workload}-{}", std::process::id())),
            next: 0,
        }
    }

    /// A directory no run has used, with the filesystem flushed so the run
    /// starts from a clean disk.
    pub fn fresh(&mut self) -> Result<PathBuf, String> {
        let dir = self.root.join(format!("run-{}", self.next));
        self.next += 1;
        std::fs::create_dir_all(&self.root)
            .map_err(|e| format!("cannot create {}: {e}", self.root.display()))?;
        for r in RealVfs.sync_barrier(std::slice::from_ref(&self.root)) {
            r.map_err(|e| format!("cannot flush {}: {e}", self.root.display()))?;
        }
        Ok(dir)
    }

    /// Delete every run's directory and wait until the filesystem has
    /// committed the deletion, so the next benchmark process does not pay
    /// for it.
    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Fails, as it should, while another process still has a directory there.
        let _ = std::fs::remove_dir(".bench_work");
        let _ = RealVfs.sync_barrier(&[PathBuf::from(".")]);
    }
}

pub fn daemon_config(workdir: &Path, slice: usize, vfs: Arc<dyn Vfs>) -> DaemonConfig {
    let mut config = DaemonConfig::new(workdir.to_path_buf());
    config.slice_iterations = slice;
    config.quiet = true;
    config.vfs = vfs;
    config
}

/// Open a daemon on the new directory `workdir`, submit `batch`, run it to the end
/// (or for `halt_after_rounds`), and check its outputs.
pub fn run_service(
    batch: &[u8],
    slice: usize,
    workdir: &Path,
    vfs: Arc<dyn Vfs>,
    halt_after_rounds: Option<u64>,
) -> Result<ServiceRun, String> {
    let mut config = daemon_config(workdir, slice, vfs);
    config.halt_after_rounds = halt_after_rounds;
    let t = Instant::now();
    let mut daemon = Daemon::open(config).map_err(|e| format!("Daemon::open: {e}"))?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let submitted = daemon
        .submit_bytes(batch)
        .map_err(|e| format!("submit_bytes: {e}"))?;
    let submit_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let summary = daemon.run().map_err(|e| format!("Daemon::run: {e}"))?;
    let run_s = t.elapsed().as_secs_f64();
    if submitted != summary.sessions {
        return Err(format!(
            "submitted {submitted} jobs but the daemon manages {}",
            summary.sessions
        ));
    }
    finish_service_run(
        &daemon,
        summary,
        open_ms,
        submit_ms,
        run_s,
        halt_after_rounds.is_some(),
    )
}

/// Collect and check the outputs of a daemon whose `run` returned `summary`.
pub fn finish_service_run(
    daemon: &Daemon,
    summary: DaemonSummary,
    open_ms: f64,
    submit_ms: f64,
    run_s: f64,
    halted: bool,
) -> Result<ServiceRun, String> {
    let failed = (summary.sessions_quarantined + summary.halted_active) as u64;
    let finished = summary.completed + summary.budget_exhausted;
    if summary.sessions != finished + failed as usize {
        return Err(format!(
            "{} sessions submitted but {} completed + {} budget-exhausted + {failed} failed",
            summary.sessions, summary.completed, summary.budget_exhausted
        ));
    }
    let mut hasher = DefaultHasher::new();
    let mut output_bytes = 0u64;
    let mut probes = 0u64;
    let mut reports = Vec::new();
    let mut budget_exhausted = 0;
    for s in daemon.sessions() {
        let trace = std::fs::read(s.trace_path()).unwrap_or_default();
        let report = std::fs::read(s.report_path()).unwrap_or_default();
        hasher.write(s.job().id.as_bytes());
        hasher.write_usize(trace.len());
        hasher.write(&trace);
        hasher.write_usize(report.len());
        hasher.write(&report);
        output_bytes += (trace.len() + report.len()) as u64;
        if report.is_empty() {
            continue;
        }
        let text =
            String::from_utf8(report).map_err(|e| format!("report of {}: {e}", s.job().id))?;
        let parsed = SessionReport::from_json(text.trim())
            .map_err(|e| format!("report of {}: {e}", s.job().id))?;
        if parsed.job_id != s.job().id || Some(&parsed) != s.report() {
            return Err(format!(
                "report.json of {} differs from the daemon's report",
                s.job().id
            ));
        }
        if parsed.status == SessionStatus::BudgetExhausted {
            budget_exhausted += 1;
        }
        probes += parsed.probes;
        reports.push((s.job().clone(), parsed));
    }
    if !halted && (reports.len() != finished || budget_exhausted != summary.budget_exhausted) {
        return Err(format!(
            "{} reports on disk ({budget_exhausted} budget-exhausted) but the summary counts {finished} ({})",
            reports.len(),
            summary.budget_exhausted
        ));
    }
    Ok(ServiceRun {
        open_ms,
        submit_ms,
        run_s,
        digest: hasher.finish(),
        output_bytes,
        probes,
        failed,
        reports,
        summary,
    })
}

/// One run of the paper grid.
pub struct GridRun {
    pub run_s: f64,
    pub cells: Vec<CellResult>,
    /// Digest of every `CellResult`.
    pub digest: u64,
    pub replicates: u64,
    /// CPU-iterations (Table IV): one fitness evaluation per arm pull.
    pub pulls: u64,
}

pub fn run_grid(datasets: &[Dataset], config: &GridConfig) -> Result<GridRun, String> {
    let t = Instant::now();
    let cells = run_grid_observed(datasets, config, &mut NullObserver);
    let run_s = t.elapsed().as_secs_f64();
    let doc = serde_json::to_string(&cells).map_err(|e| format!("cells do not encode: {e}"))?;
    let mut hasher = DefaultHasher::new();
    hasher.write(doc.as_bytes());
    let replicates = cells.iter().map(|c| c.replicates).sum();
    let pulls = cells
        .iter()
        .map(|c| (c.cpu_iterations.mean * c.cpu_iterations.count as f64).round() as u64)
        .sum();
    Ok(GridRun {
        run_s,
        cells,
        digest: hasher.finish(),
        replicates,
        pulls,
    })
}

/// Fail unless `digest` equals the first digest this invocation saw.
pub fn same_digest(first: &mut Option<u64>, digest: u64, what: &str) -> Result<(), String> {
    match *first {
        None => {
            *first = Some(digest);
            Ok(())
        }
        Some(d) if d == digest => Ok(()),
        Some(d) => Err(format!(
            "{what}: output digest {digest:016x} differs from {d:016x}"
        )),
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolation quantile of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
