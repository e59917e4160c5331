//! The repository's benchmark: the `mwrepaird` daemon and the paper grid,
//! measured end to end, with a separate traced run that times each layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload service-churn|service-repair|paper-grid \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root: the work directory is `.bench_work/`
//! there. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the line before
//! it records the run's metadata. `--trace 0` measures the end-to-end
//! metrics, `--trace 1` the per-layer ones. Any output mismatch exits
//! non-zero without printing numbers. `perfbench/README.md` describes the
//! workloads and every metric.

mod counting_vfs;
mod runs;
mod timed_alg;
mod traced;
mod workload;

use mwrepair_service::{RealVfs, Vfs};
use runs::{median, peak_rss_mb, quantile, run_grid, run_service, same_digest, WorkDirs};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use workload::Workload;

/// Runs below which an untraced run keeps going past `--seconds`.
const MIN_RUNS: usize = 3;
/// Dataset builds timed per `paper-grid` run.
const GRID_SETUP_REPS: usize = 20;
/// No new measured run starts after this many seconds, so one invocation
/// stays well inside three minutes whatever `--seconds` asks for.
const HARD_STOP_S: f64 = 120.0;

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: the operations it attempted and failed, the
/// metrics, and facts about the samples behind them.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: Workload::parse(&workload_name).ok_or_else(|| {
            format!(
                "unknown workload {workload_name:?} (service-churn, service-repair, paper-grid)"
            )
        })?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Untraced runs, repeated for `seconds`: the end-to-end metrics, as
/// medians over runs. Job latencies are pooled over the runs before
/// their quantiles are taken.
fn untraced(args: &Args, dirs: &mut WorkDirs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut setup, mut jobs, mut evals, mut latency) = (vec![], vec![], vec![], vec![]);
    let mut first_digest = None;
    let start = Instant::now();
    let mut runs = 0usize;
    let mut keep_going = || {
        let elapsed = start.elapsed().as_secs_f64();
        runs += 1;
        (runs <= MIN_RUNS || elapsed < args.seconds) && elapsed < HARD_STOP_S
    };
    if args.workload.is_service() {
        let (batch, slice) = workload::service_batch(args.workload, args.seed);
        let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);
        while keep_going() {
            let r = run_service(&batch, slice, &dirs.fresh()?, Arc::clone(&vfs), None)?;
            same_digest(&mut first_digest, r.digest, "service run")?;
            out.attempted += r.summary.sessions as u64;
            out.failed += r.failed;
            eprintln!(
                "run {}: setup {:.3} s, run {:.3} s",
                jobs.len() + 1,
                r.setup_s(),
                r.run_s
            );
            setup.push(r.setup_s());
            jobs.push(r.finished() as f64 / r.run_s);
            evals.push(r.probes as f64 / r.run_s);
            latency.extend_from_slice(&r.summary.session_wall_ms);
        }
    } else {
        let config = workload::grid_config(args.seed);
        while keep_going() {
            // Building the datasets takes about a millisecond, so each run
            // repeats it and contributes every repetition to the median.
            let mut datasets = Vec::new();
            for _ in 0..GRID_SETUP_REPS {
                let t = Instant::now();
                datasets = workload::grid_datasets();
                setup.push(t.elapsed().as_secs_f64());
            }
            let r = run_grid(&datasets, &config)?;
            same_digest(&mut first_digest, r.digest, "grid run")?;
            out.attempted += r.replicates;
            eprintln!("run {}: run {:.3} s", jobs.len() + 1, r.run_s);
            jobs.push(r.replicates as f64 / r.run_s);
            evals.push(r.pulls as f64 / r.run_s);
            // The grid publishes every replicate when the call returns.
            latency.extend(std::iter::repeat_n(r.run_s * 1e3, r.replicates as usize));
        }
    }
    out.put("setup_s", median(&setup), "s");
    out.put("jobs_per_s", median(&jobs), "1/s");
    out.put("evals_per_s", median(&evals), "1/s");
    out.put("job_p50_ms", quantile(&latency, 0.5), "ms");
    out.put("job_p90_ms", quantile(&latency, 0.9), "ms");
    out.put("peak_rss_mb", peak_rss_mb()?, "MiB");
    out.note("runs", jobs.len());
    out.note("latency_samples", latency.len());
    out.note(
        "digest",
        format!("{:016x}", first_digest.expect("at least one run")),
    );
    Ok(out)
}

/// The filesystem type of the mount holding `path`, from `/proc/mounts`:
/// the medium under the work directory.
fn filesystem_type(path: &Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt)
                .then(|| (mnt.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            }),
            None => Some(head),
        }
        .unwrap_or_else(|| "unknown".into()),
        None => "unknown".into(),
    }
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings encode")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::set_num_threads(nproc);
    let mut dirs = WorkDirs::new(&args.workload_name);
    let result = if args.trace {
        traced::run(args.workload, args.seed, &mut dirs, nproc)
    } else {
        untraced(&args, &mut dirs)
    };
    let fs_type = filesystem_type(Path::new("."));
    dirs.remove();
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload_name);
            std::process::exit(1);
        }
    };
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", m.name);
        std::process::exit(1);
    }
    for m in &out.metrics {
        eprintln!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let mut meta = vec![
        (
            "bench_meta".to_string(),
            serde_json::to_string(&mwu_experiments::BenchMeta::capture()).expect("meta encodes"),
        ),
        ("workload".into(), json_string(&args.workload_name)),
        ("seed".into(), args.seed.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        ("nproc".into(), nproc.to_string()),
        ("workdir_fs".into(), json_string(&fs_type)),
        ("commit".into(), json_string(&commit())),
    ];
    meta.extend(out.notes.iter().map(|(k, v)| (k.clone(), json_string(v))));
    let fields: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    println!("{{\"meta\":{{{}}}}}", fields.join(","));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}
