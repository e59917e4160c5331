//! Per-scenario cost of one MWRepair probe, split into sampling and
//! evaluation.
//!
//! For each catalog scenario: build the pool (seed 1), then time `--probes`
//! probes (default 20 000) with the composition size x uniform in
//! `1..=min(512, pool)`, as the driver's `max_composition` allows. Each
//! probe samples a composition into reused scratch and evaluates it. The
//! last column is a digest of every composition and outcome, so two builds
//! that must agree bit for bit can be compared by it.
//!
//! ```sh
//! cargo run --release -p apr-sim --example probe_cost -- --probes 20000
//! ```

use apr_sim::{BugScenario, Mutation, SampleScratch};
use mwu_core::rng::mix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let probes: usize = match args.iter().position(|a| a == "--probes") {
        Some(i) => args[i + 1].parse().expect("--probes takes a count"),
        None => 20_000,
    };
    println!(
        "{:<20} {:>7} {:>11} {:>11} {:>11}  digest",
        "scenario", "pool", "sample_us", "eval_us", "probe_us"
    );
    let (mut sample_total, mut eval_total) = (Duration::ZERO, Duration::ZERO);
    for scenario in BugScenario::catalog_all() {
        let pool = scenario.build_pool(1, None);
        let max_x = pool.len().min(512);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut scratch = SampleScratch::default();
        let mut comp: Vec<Mutation> = Vec::new();
        let (mut sample, mut eval) = (Duration::ZERO, Duration::ZERO);
        let mut digest = 0u64;
        for _ in 0..probes {
            let x = rng.gen_range(1..=max_x);
            let t0 = Instant::now();
            pool.sample_composition_into(x, &mut rng, &mut scratch, &mut comp);
            let t1 = Instant::now();
            let out = scenario.evaluate(&comp, None);
            eval += t1.elapsed();
            sample += t1 - t0;
            let ids = comp.iter().fold(0u64, |a, m| mix(&[a, m.id().0]));
            digest = mix(&[digest, ids, out.fitness as u64, out.repaired as u64]);
        }
        let us = |d: Duration| d.as_secs_f64() * 1e6 / probes as f64;
        println!(
            "{:<20} {:>7} {:>11.2} {:>11.2} {:>11.2}  {digest:016x}",
            scenario.name,
            pool.len(),
            us(sample),
            us(eval),
            us(sample + eval)
        );
        sample_total += sample;
        eval_total += eval;
    }
    println!(
        "total: sample {:.0} ms, evaluate {:.0} ms, probes {:.0} ms",
        sample_total.as_secs_f64() * 1e3,
        eval_total.as_secs_f64() * 1e3,
        (sample_total + eval_total).as_secs_f64() * 1e3
    );
}
