//! The repository's benchmark: four workloads from capture to daemon,
//! end-to-end metrics with tracing off, per-layer metrics with it on.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <e2_accounting|q100_select|hfta_merge_agg|daemon_carry> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. The last line of standard
//! output is one JSON object: `correct`, `attempted` and `failed` count
//! the output checks, `metrics` holds each metric's value and unit.
//! Workloads and metrics are described in `perfbench/WORKLOADS.md`.

mod clock;
mod daemon;
mod gen;
mod layers;
mod oneshot;
mod stats;
mod traced;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Named metrics in report order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Record `name = value unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            value.is_finite(),
            "metric {name} is not a finite number: {value}"
        );
        self.0.push((name, value, unit));
    }
}

/// Output checks: each is counted, a failure is reported, none is skipped.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Count one check; report it on stderr when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Scratch space (durable state directories) inside the checkout.
    let tmp = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create scratch directory");

    let t = Instant::now();
    let mut checks = Checks::default();
    let metrics = match args.workload.as_str() {
        "daemon_carry" => {
            let input = gen::daemon_input(args.seed);
            println!("inputs generated in {:.2} s", t.elapsed().as_secs_f64());
            if args.trace {
                traced::run(
                    &traced::Subject::Daemon(&input),
                    args.seconds,
                    &tmp,
                    &mut checks,
                )
            } else {
                daemon::run(&input, args.seconds, &tmp, &mut checks)
            }
        }
        name => {
            let w = match name {
                "e2_accounting" => gen::e2_accounting(args.seed),
                "q100_select" => gen::q100_select(args.seed),
                "hfta_merge_agg" => gen::hfta_merge_agg(args.seed),
                _ => {
                    eprintln!("perfbench: unknown workload `{name}`");
                    let _ = std::fs::remove_dir_all(&tmp);
                    std::process::exit(2);
                }
            };
            println!("inputs generated in {:.2} s", t.elapsed().as_secs_f64());
            if args.trace {
                traced::run(
                    &traced::Subject::OneShot(&w),
                    args.seconds,
                    &tmp,
                    &mut checks,
                )
            } else {
                oneshot::run(&w, args.seconds, &mut checks)
            }
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");

    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "workload {} seed {} trace {}: {} checks, {} failed (failed_frac {failed_frac})",
        args.workload, args.seed, args.trace as u8, checks.attempted, checks.failed
    );
    let mut json = String::new();
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<32} {value:>16.4} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
}
