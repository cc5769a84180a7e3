//! Host-clock benchmark of the cut-and-paste stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-zipf-256|sprite-1b-nvram|check-1a> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from `--seed` and repeats whole
//! rounds of the workload's public entry point (`run_serve_cell`,
//! `run_experiment`, `run_check_with`) for about `--seconds`, checking
//! every round's output. Before each round a child process of the
//! benchmark (`--setup-only 1`) times a stretch of set-ups. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` rebuilds the stacks from
//! public constructors with host-time probes around each layer and
//! reports the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod layers;
mod probe;
mod replica;
mod report;
mod serve;
mod sprite;

pub use layers::Layers;

use report::{host_line, Outcome, SETUP_SAMPLES};

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["serve-zipf-256", "sprite-1b-nvram", "check-1a"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Only one stretch of set-ups, printed as samples: how a run times
    /// its set-up in a child process.
    pub setup_only: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value} ({WORKLOADS:?})")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value} out of range (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--setup-only" => {
                setup_only = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--setup-only takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_only {
        let samples = match args.workload.as_str() {
            "serve-zipf-256" => serve::setup_stretch(args.seed),
            "sprite-1b-nvram" => sprite::setup_stretch(args.seed),
            "check-1a" => check::setup_stretch(args.seed),
            _ => unreachable!("workload names are validated by parse_args"),
        };
        let values: Vec<String> = samples.iter().map(|v| format!("{v:?}")).collect();
        println!("{SETUP_SAMPLES} {}", values.join(" "));
        return;
    }
    println!("{}", host_line());
    println!(
        "workload {} | seed {} | seconds {} | trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out: Outcome = match (args.workload.as_str(), args.trace) {
        ("serve-zipf-256", false) => serve::run(&args),
        ("serve-zipf-256", true) => serve::run_traced(&args),
        ("sprite-1b-nvram", false) => sprite::run(&args),
        ("sprite-1b-nvram", true) => sprite::run_traced(&args),
        ("check-1a", false) => check::run(&args),
        ("check-1a", true) => check::run_traced(&args),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let bad: Vec<String> = out.metrics.non_finite().map(|n| format!("{n} is not finite")).collect();
    out.problems.extend(bad);
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", out.result_line());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload check-1a --seed 9 --seconds 12 --trace 1").expect("valid");
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("check-1a", 9, 12.0, true));
        assert!(!a.setup_only);
        assert!(parse("--workload check-1a --seed 9 --setup-only 1").expect("valid").setup_only);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload check-1a").is_err(), "the seed is required");
        assert!(parse("--workload check-1a --seed 1 --seconds 0").is_err());
        assert!(parse("--workload check-1a --seed 1 --trace 2").is_err());
        assert!(parse("--workload check-1a --seed 1 --setup-only yes").is_err());
        assert!(parse("--workload check-1a --seed").is_err());
    }
}
