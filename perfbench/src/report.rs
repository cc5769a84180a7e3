//! The result line, the statistics behind it and the host it ran on.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::Args;

/// Prefix of the line a `--setup-only 1` run prints its samples on.
pub const SETUP_SAMPLES: &str = "setup samples (s):";

/// Metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.entries.push((name, value, unit));
    }

    /// Names of the metrics whose value is NaN or infinite.
    pub fn non_finite(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().filter(|(_, v, _)| !v.is_finite()).map(|&(n, _, _)| n)
    }
}

/// What a run did and whether its outputs held up.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub problems: Vec<String>,
    /// The run's metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The one-line JSON result the benchmark ends its output with.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .entries
            .iter()
            .map(|(name, v, unit)| {
                // JSON has no NaN or infinity; `main` reports such a
                // value as a failed check.
                let v = if v.is_finite() { *v } else { -1.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Repeats `round` for as long as another round still fits in
/// `seconds` (at least `min_rounds` times), returning every round's
/// result with its host seconds. Whole rounds only: a run never stops
/// inside one, so every run attempts the same operations per round.
/// `before` runs ahead of each round, outside the round's timing but
/// inside the run's `seconds`.
pub fn rounds<R>(
    seconds: f64,
    min_rounds: usize,
    mut before: impl FnMut(),
    mut round: impl FnMut() -> R,
) -> Vec<(R, f64)> {
    let start = Instant::now();
    let mut out: Vec<(R, f64)> = Vec::new();
    loop {
        before();
        out.push(timed(&mut round));
        let longest = out.iter().map(|(_, s)| *s).fold(0.0, f64::max);
        if out.len() >= min_rounds && start.elapsed().as_secs_f64() + longest > seconds {
            return out;
        }
    }
}

/// Repeats `f` at least `min_reps` times and until `seconds` have
/// passed, returning every result. Set-up samples so cover a stretch of
/// the host's time instead of one burst of a few milliseconds.
pub fn repeat_for<R>(min_reps: usize, seconds: f64, mut f: impl FnMut() -> R) -> Vec<R> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        out.push(f());
    }
    out
}

/// Runs one stretch of the workload's set-ups in a child process of
/// this benchmark (`--setup-only 1`), waits for it and returns its
/// samples in seconds. A fresh process gives the set-ups the same heap
/// history on every run, where this process's heap depends on the
/// rounds before; and the rounds never run on a heap the set-ups left.
pub fn setup_in_child(args: &Args) -> Vec<f64> {
    let exe = std::env::current_exe().expect("path of the benchmark's executable");
    let seed = args.seed.to_string();
    let child = Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &seed, "--setup-only", "1"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("start the set-up process");
    assert!(child.status.success(), "set-up process failed: {}", child.status);
    let stdout = String::from_utf8_lossy(&child.stdout);
    let line = stdout.lines().find_map(|l| l.strip_prefix(SETUP_SAMPLES));
    let samples: Vec<f64> = line
        .expect("set-up process printed no samples")
        .split_whitespace()
        .map(|v| v.parse().expect("set-up sample"))
        .collect();
    assert!(!samples.is_empty(), "set-up process printed no samples");
    samples
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// One line naming the host: CPU model, cores and compiler.
pub fn host_line() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!("host: cpu \"{model}\" | cores {cores} | {}", env!("PERFBENCH_RUSTC"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rounds_are_whole_and_at_least_the_minimum() {
        let mut n = 0;
        let out = rounds(
            0.0,
            3,
            || {},
            || {
                n += 1;
                n
            },
        );
        assert_eq!(out.iter().map(|(r, _)| *r).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn repeat_for_meets_both_the_count_and_the_time() {
        assert_eq!(repeat_for(4, 0.0, || 1).len(), 4);
        let t0 = Instant::now();
        let n = repeat_for(1, 0.02, || std::thread::sleep(std::time::Duration::from_millis(1)));
        assert!(n.len() > 1 && t0.elapsed().as_secs_f64() >= 0.02);
    }

    #[test]
    fn result_line_is_one_json_object_with_every_digit() {
        let mut out = Outcome { attempted: 7, ..Outcome::default() };
        out.metrics.put("latency_ms", 1.2034567891, "ms");
        out.check(true, || unreachable!());
        assert_eq!(
            out.result_line(),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}}}"
        );
        out.check(false, || "broken".into());
        assert!(out.result_line().starts_with("{\"correct\": false"));
    }
}
