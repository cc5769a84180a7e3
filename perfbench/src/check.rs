//! `check-1a`: the crash-point checker (`run_check_with`) on Sprite
//! trace 1a, plus the multi-client history (linearizability) leg.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use cnp_check::{
    check_history, format_check_report, record_history, run_cell, run_check_with, CellSpec,
    CheckConfig, CheckOptions, CheckReport, CutSpec, HistoryCheckConfig, LinConfig, PolicySpec,
};
use cnp_core::{FileSystem, HistoryEvent};
use cnp_disk::{CLook, FaultPlan, Hp97560};
use cnp_fault::{verify_crash_state, CrashState, FaultyDisk, LayoutKind, LossReport};
use cnp_obs::{Histogram, MetricsSnapshot};
use cnp_sim::{Sim, SimDuration, SimTime};
use cnp_trace::{bounded_prefix, preset, replay_with, ReplayOptions, SyntheticSprite, TraceRecord};
use cnp_workload::{Scenario, WorkloadKind};

use crate::layers::Layers;
use crate::probe::{Probe, TimedModel, TimedSched};
use crate::report::{median, peak_rss_mb, repeat_for, rounds, setup_in_child, timed, Outcome};
use crate::Args;

/// Trace scale the records are generated at (`patsy check`'s default).
const SCALE: f64 = 0.002;
/// Op boundaries enumerated per policy.
const BUDGET: usize = 100;
/// I/O pipeline depth of every cell.
const QUEUE_DEPTH: u32 = 8;
/// History leg: concurrent zipf clients and their scale.
const HISTORY_CLIENTS: u32 = 16;
const HISTORY_SCALE: f64 = 0.05;
/// Set-ups per stretch: at least this many, and for at least
/// `SETUP_SECONDS`.
const SETUP_REPS: usize = 51;
const SETUP_SECONDS: f64 = 0.5;
/// Graceful cells per policy row whose host time the traced run splits.
const SAMPLE_PER_ROW: usize = 6;

fn records(seed: u64) -> Vec<TraceRecord> {
    SyntheticSprite::new(preset("1a").expect("trace 1a"), seed ^ 0xabcd).generate(SCALE)
}

fn check_config(seed: u64, records: Vec<TraceRecord>) -> CheckConfig {
    let mut cfg = CheckConfig::new(records, "1a", BUDGET);
    cfg.queue_depth = QUEUE_DEPTH;
    cfg.seed = seed;
    cfg
}

fn history_config(seed: u64) -> HistoryCheckConfig {
    HistoryCheckConfig {
        kind: WorkloadKind::Zipf,
        clients: HISTORY_CLIENTS,
        seed,
        scale: HISTORY_SCALE,
        layout: LayoutKind::Lfs,
        queue_depth: QUEUE_DEPTH,
        lin: LinConfig::default(),
    }
}

/// The cell spec `run_check_with` derives for row (`li`, `pi`).
fn cell_spec(cfg: &CheckConfig, li: usize, pi: usize, policy: &PolicySpec) -> CellSpec {
    CellSpec {
        layout: cfg.layouts[li],
        flush: policy.flush.to_string(),
        nvram_bytes: policy.nvram.then_some(cfg.nvram_bytes),
        mem_bytes: cfg.mem_bytes,
        queue_depth: cfg.queue_depth,
        sim_seed: cfg
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(((li as u64) << 24) ^ ((pi as u64) << 8)),
        plant_stale_size_bug: cfg.plant_stale_size_bug,
    }
}

/// One set-up's host seconds, phase by phase.
struct SetupTimes {
    trace_s: f64,
    scenario_s: f64,
    build_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.trace_s + self.scenario_s + self.build_s
    }
}

/// Set-up of the workload: its two inputs — the trace 1a records and
/// the history leg's zipf scenario — then the stack of each policy row
/// (fault-injecting HP 97560, LFS, the checker's small cache), each
/// formatted. Returns the records with the phases' seconds.
///
/// The scenario has a fixed number of operations per client while the
/// trace's length follows the seed, so the scenario and the four stacks
/// keep the set-up's work nearly the same from seed to seed.
fn setup_once(seed: u64) -> (Vec<TraceRecord>, SetupTimes) {
    let (recs, trace_s) = timed(|| records(seed));
    let h = history_config(seed);
    let (_, scenario_s) = timed(|| Scenario::generate(h.kind, h.clients, h.seed, h.scale));
    let cfg = check_config(seed, Vec::new());
    let ((), build_s) = timed(|| {
        for (pi, policy) in cfg.policies.iter().enumerate() {
            let spec = cell_spec(&cfg, 0, pi, policy);
            let sim = Sim::new(spec.sim_seed);
            let h = sim.handle();
            let (driver, _disk) = FaultyDisk::new(Box::new(Hp97560::new()), FaultPlan::default())
                .spawn(&h, "cell0", Box::new(CLook));
            let fs = FileSystem::new(&h, spec.layout.build(&h, driver), spec.fs_config());
            h.spawn("setup", async move {
                fs.format().await.expect("format");
                fs.shutdown();
            });
            sim.run_until(SimTime::from_nanos(u64::MAX / 2));
        }
    });
    (recs, SetupTimes { trace_s, scenario_s, build_s })
}

/// The history leg's simulated throughput and latency over its
/// acknowledged operations: (ops per simulated second, latencies).
fn history_virtual(events: &[HistoryEvent]) -> (f64, Histogram) {
    let mut lat = Histogram::latency_default();
    let (mut first, mut last) = (u64::MAX, 0u64);
    for e in events.iter().filter(|e| e.acked()) {
        lat.record((e.ack_ns - e.invoke_ns) as f64 / 1e6);
        first = first.min(e.invoke_ns);
        last = last.max(e.ack_ns);
    }
    let span_s = last.saturating_sub(first) as f64 / 1e9;
    (lat.count() as f64 / span_s, lat)
}

/// One round of the workload: the enumeration, then the history leg.
struct Round {
    report: CheckReport,
    check_s: f64,
    events: Vec<HistoryEvent>,
    linearizable: bool,
    history_s: f64,
}

fn round(cfg: &CheckConfig, hcfg: &HistoryCheckConfig) -> Round {
    let (report, check_s) = timed(|| run_check_with(cfg, CheckOptions::serial()));
    let ((events, linearizable), history_s) = timed(|| {
        let events = record_history(hcfg);
        let linearizable = check_history(&events, &hcfg.lin).is_linearizable();
        (events, linearizable)
    });
    Round { report, check_s, events, linearizable, history_s }
}

fn check_round(out: &mut Outcome, cfg: &CheckConfig, r: &Round, first: &str) {
    let rows = &r.report.rows;
    let boundary: usize = rows.iter().map(|row| row.boundary_cells).sum();
    let summed: usize = rows.iter().map(|row| row.boundary_cells + row.retire_cells).sum();
    let prefix = cfg.budget.min(cfg.records.len());
    out.check(rows.len() == 4 && boundary == prefix * 4, || {
        format!("{boundary} boundary cells over {} rows, want {prefix} x 4", rows.len())
    });
    out.check(r.report.cells == summed, || {
        format!("{} cells reported, rows sum to {summed}", r.report.cells)
    });
    out.check(r.report.violations == 0, || format!("{} violating cells", r.report.violations));
    out.check(r.linearizable, || "the history leg found no sequential witness".into());
    out.check(format_check_report(cfg, &r.report) == first, || {
        "a repeated check's report differs from the first".into()
    });
}

/// One stretch of set-ups, run in a child process before each round
/// (see [`setup_in_child`](crate::report::setup_in_child)): the total
/// seconds of each.
pub fn setup_stretch(seed: u64) -> Vec<f64> {
    repeat_for(SETUP_REPS, SETUP_SECONDS, || setup_once(seed).1.total())
}

/// The untraced run: whole checks for `--seconds`, each after a
/// stretch of set-ups.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = check_config(args.seed, records(args.seed));
    let hcfg = history_config(args.seed);
    out.check(records(args.seed) == cfg.records, || "trace generation is not repeatable".into());
    let mut setups = Vec::new();
    let set_up = || setups.extend(setup_in_child(args));
    let all = rounds(args.seconds, 2, set_up, || round(&cfg, &hcfg));
    let peak_rss = peak_rss_mb();
    let first = &all[0].0;
    let first_report = format_check_report(&cfg, &first.report);
    for (r, _) in &all {
        out.attempted += r.report.cells as u64;
        out.failed += r.report.violations as u64;
        check_round(&mut out, &cfg, r, &first_report);
        out.check(r.events == first.events, || "a repeated history leg differs".into());
    }
    let rates: Vec<f64> = all.iter().map(|(r, _)| r.report.cells as f64 / r.check_s).collect();
    eprintln!("round rates (1/s): {rates:.1?}");
    // Cells per host second of the enumeration over the whole run. The
    // history leg's fixed host time is left out, or seeds with few cells
    // would read slower; it is `check.history_ms` in the traced run.
    let cells: usize = all.iter().map(|(r, _)| r.report.cells).sum();
    let check_s: f64 = all.iter().map(|(r, _)| r.check_s).sum();
    let (virt_rate, lat) = history_virtual(&first.events);
    println!(
        "check-1a: {} checks | {} cells ({} violations) | history {} events, {} acked",
        all.len(),
        first.report.cells,
        first.report.violations,
        first.events.len(),
        lat.count()
    );
    let m = &mut out.metrics;
    m.put("setup_s", median(&setups), "s");
    m.put("ops_per_host_s", cells as f64 / check_s, "1/s");
    m.put("peak_rss_mb", peak_rss, "MB");
    m.put("virt_ops_per_s", virt_rate, "1/s");
    m.put("virt_mean_ms", lat.mean(), "ms");
    m.put("virt_p99_ms", lat.quantile(0.99), "ms");
    out
}

/// Host time of one graceful cell, phase by phase, from a rebuild of
/// the cell around the public calls it is made of.
#[derive(Debug, Default, Clone, Copy)]
struct Split {
    setup: Duration,
    replay: Duration,
    capture: Duration,
    verify: Duration,
    total: Duration,
}

/// The virtual outcome fields the rebuilt cell must share with
/// `run_cell`.
#[derive(Debug, PartialEq)]
struct CellPrint {
    ops: u64,
    errors: u64,
    cut_at_ns: u64,
    inflight_batch: u64,
    nvram_replayed: u64,
    fsck_post: u64,
    loss: LossReport,
}

/// What a rebuilt cell measured besides its split.
struct CellTrace {
    print: CellPrint,
    split: Split,
    steps: u64,
    ops: u64,
    metrics: MetricsSnapshot,
}

/// A graceful crash cell as `run_cell` runs it — stack, format, the
/// arrival probe, `replay_with`, `CrashState::capture`,
/// `verify_crash_state` — with each phase timed and the disk model and
/// scheduler wrapped in `probe`.
fn split_cell(spec: &CellSpec, records: &[TraceRecord], probe: &Rc<Probe>) -> CellTrace {
    let t0 = Instant::now();
    let sim = Sim::new(spec.sim_seed);
    let h = sim.handle();
    let model = TimedModel::boxed(Box::new(Hp97560::new()), probe);
    let (driver, disk) = FaultyDisk::new(model, FaultPlan::default()).spawn(
        &h,
        "cell0",
        TimedSched::boxed(Box::new(CLook), probe),
    );
    let layout = spec.layout.build(&h, driver.clone());
    let fs_cfg = spec.fs_config();
    let fs = FileSystem::new(&h, layout, fs_cfg.clone());
    let build = t0.elapsed();
    let layout_kind = spec.layout;
    let records = records.to_vec();
    type Out = Option<(CellPrint, Split, u64, MetricsSnapshot)>;
    let out: Rc<RefCell<Out>> = Rc::new(RefCell::new(None));
    let out2 = out.clone();
    let h2 = h.clone();
    h.spawn("check-cell", async move {
        let mut split = Split { setup: build, ..Split::default() };
        let t = Instant::now();
        fs.format().await.expect("format");
        split.setup += t.elapsed();
        let budget = records.len() as u64;
        let last_time_ns = records.last().map(|r| r.time_ns).unwrap_or(0);
        let arrival = h2.now() + SimDuration::from_nanos(last_time_ns);
        let batch = Rc::new(Cell::new(0u64));
        let (batch2, driver2, fs2, h3) = (batch.clone(), driver.clone(), fs.clone(), h2.clone());
        h2.spawn("arrival-probe", async move {
            h3.sleep_until(arrival).await;
            batch2.set(driver2.outstanding_writes());
            let _ = fs2.nvram_snapshot();
        });
        let t = Instant::now();
        let opts = ReplayOptions { max_ops: Some(budget), track_acks: true };
        let report = replay_with(&h2, &fs, records, opts).await;
        split.replay = t.elapsed();
        let cut_at_ns = h2.now().as_nanos();
        let metrics = fs.metrics();
        let t = Instant::now();
        let state = CrashState::capture(&fs, &disk).await;
        split.capture = t.elapsed();
        fs.shutdown();
        let t = Instant::now();
        let v = verify_crash_state(&h2, layout_kind, &state, &report.acked, fs_cfg)
            .await
            .expect("graceful cells recover");
        split.verify = t.elapsed();
        let print = CellPrint {
            ops: report.ops,
            errors: report.errors,
            cut_at_ns,
            inflight_batch: batch.get(),
            nvram_replayed: v.nvram_replayed,
            fsck_post: v.outcome.post.violations.len() as u64,
            loss: v.loss,
        };
        *out2.borrow_mut() = Some((print, split, report.ops, metrics));
    });
    sim.run_until(SimTime::from_nanos(u64::MAX / 2));
    let (print, mut split, ops, metrics) = out.borrow_mut().take().expect("cell did not finish");
    split.total = t0.elapsed();
    CellTrace { print, split, steps: sim.steps(), ops, metrics }
}

/// A seeded sample of (row, boundary) cells: `SAMPLE_PER_ROW` distinct
/// boundaries per policy row.
fn sample_cells(seed: u64, rows: usize, prefix: usize) -> Vec<(usize, usize)> {
    let mut state = seed ^ 0x5eed_ce11_5a3b_1e00;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut cells = Vec::new();
    for row in 0..rows {
        let mut ks: Vec<usize> = Vec::new();
        while ks.len() < SAMPLE_PER_ROW.min(prefix) {
            let k = 1 + (next() % prefix as u64) as usize;
            if !ks.contains(&k) {
                ks.push(k);
            }
        }
        cells.extend(ks.into_iter().map(|k| (row, k)));
    }
    cells
}

/// The traced run: per round the enumeration and history leg through
/// their entry points, then the sampled cells through `run_cell` and
/// through the phase-by-phase rebuild.
pub fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = check_config(args.seed, records(args.seed));
    let hcfg = history_config(args.seed);
    let prefix = cfg.budget.min(cfg.records.len());
    let specs: Vec<CellSpec> =
        cfg.policies.iter().enumerate().map(|(pi, p)| cell_spec(&cfg, 0, pi, p)).collect();
    let sample = sample_cells(args.seed, specs.len(), prefix);
    let probe = Probe::new();
    let mut cell_s = Vec::new();
    let mut traces: Vec<CellTrace> = Vec::new();
    let mut mismatches = Vec::new();
    let all = rounds(
        args.seconds,
        1,
        || {},
        || {
            let r = round(&cfg, &hcfg);
            for &(row, k) in &sample {
                let prefix_records = bounded_prefix(&cfg.records, k, &[]);
                let (entry, s) =
                    timed(|| run_cell(&specs[row], &prefix_records, CutSpec::Graceful));
                cell_s.push(s);
                let t = split_cell(&specs[row], &prefix_records, &probe);
                let want = CellPrint {
                    ops: entry.ops,
                    errors: entry.errors,
                    cut_at_ns: entry.cut_at_ns,
                    inflight_batch: entry.inflight_batch,
                    nvram_replayed: entry.nvram_replayed,
                    fsck_post: entry.fsck_post,
                    loss: entry.loss,
                };
                if t.print != want {
                    mismatches
                        .push(format!("cell {row}/{k}: rebuilt {:?}, run_cell {want:?}", t.print));
                }
                traces.push(t);
            }
            r
        },
    );
    out.problems.extend(mismatches);
    let (mut gens, mut builds, mut scenario_gens) = (Vec::new(), Vec::new(), Vec::new());
    for t in repeat_for(SETUP_REPS, SETUP_SECONDS, || setup_once(args.seed).1) {
        gens.push(t.trace_s);
        scenario_gens.push(t.scenario_s);
        builds.push(t.build_s);
    }
    let first = &all[0].0;
    let first_report = format_check_report(&cfg, &first.report);
    for (r, _) in &all {
        out.attempted += r.report.cells as u64;
        out.failed += r.report.violations as u64;
        check_round(&mut out, &cfg, r, &first_report);
    }
    let n = traces.len() as f64;
    let mean_ms = |f: fn(&Split) -> Duration| {
        traces.iter().map(|t| f(&t.split).as_secs_f64()).sum::<f64>() * 1e3 / n
    };
    let ops: u64 = traces.iter().map(|t| t.ops).sum();
    let steps: u64 = traces.iter().map(|t| t.steps).sum();
    let total_ms = mean_ms(|s| s.total);
    let cell_ms = cell_s.iter().sum::<f64>() * 1e3 / cell_s.len() as f64;
    let snapshots: Vec<&MetricsSnapshot> = traces.iter().map(|t| &t.metrics).collect();
    let engine = Layers::from_engines(&snapshots, ops as f64);
    let ios = engine.ios_per_op * ops as f64;
    let layers = Layers {
        workload_gen_ms: median(&scenario_gens) * 1e3,
        trace_gen_ms: median(&gens) * 1e3,
        core_build_ms: median(&builds) * 1e3,
        steps_per_op: steps as f64 / ops as f64,
        host_ns_per_step: total_ms * 1e6 * n / steps as f64,
        model_ns_per_io: probe.model_ns.get() as f64 / ios,
        sched_ns_per_io: probe.sched_ns.get() as f64 / ios,
        check_cells: first.report.cells as f64,
        power_cut_cells: first.report.rows.iter().map(|r| r.retire_cells).sum::<usize>() as f64,
        cell_ms,
        setup_ms_per_cell: mean_ms(|s| s.setup),
        replay_ms_per_cell: mean_ms(|s| s.replay),
        capture_ms_per_cell: mean_ms(|s| s.capture),
        verify_ms_per_cell: mean_ms(|s| s.verify),
        history_ms: median(&all.iter().map(|(r, _)| r.history_s).collect::<Vec<_>>()) * 1e3,
        trace_overhead_pct: (total_ms - cell_ms) / cell_ms * 100.0,
        ..engine
    };
    println!("check-1a traced: {} rounds | {} sampled cells split", all.len(), traces.len());
    layers.put_into(&mut out.metrics);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checker's oracle can fail: with the stale-size write bug
    /// planted (as `tests/check.rs` plants it), the enumeration must flag
    /// acknowledged loss and the benchmark's per-round check must reject
    /// the round; the healthy stack under the same budget stays clean.
    #[test]
    fn planted_stale_size_bug_fails_the_round_check() {
        let records = Scenario::generate(WorkloadKind::Zipf, 4, 4242, 0.005).to_trace_records();
        let mut cfg = CheckConfig::new(records, "zipf", 60);
        cfg.queue_depth = QUEUE_DEPTH;
        cfg.seed = 4242;
        cfg.policies =
            vec![PolicySpec { label: "nvram-whole-file", flush: "nvram-whole", nvram: true }];
        cfg.minimize_runs = 0;
        let healthy = run_check_with(&cfg, CheckOptions::serial());
        assert!(healthy.clean(), "the healthy stack must verify clean: {:?}", healthy.rows);
        cfg.plant_stale_size_bug = true;
        let planted = run_check_with(&cfg, CheckOptions::serial());
        assert!(!planted.clean(), "the planted stale-size bug must be flagged");
        let mut out = Outcome::default();
        let first = format_check_report(&cfg, &planted);
        let round = Round {
            report: planted,
            check_s: 0.0,
            events: Vec::new(),
            linearizable: true,
            history_s: 0.0,
        };
        check_round(&mut out, &cfg, &round, &first);
        assert!(
            out.problems.iter().any(|p| p.contains("violating cells")),
            "the round check must reject violations: {:?}",
            out.problems
        );
    }

    #[test]
    fn sampled_cells_are_distinct_per_row_and_seeded() {
        let a = sample_cells(7, 4, 100);
        assert_eq!(a, sample_cells(7, 4, 100), "the sample is a function of the seed");
        assert_ne!(a, sample_cells(8, 4, 100));
        assert_eq!(a.len(), 4 * SAMPLE_PER_ROW);
        for row in 0..4 {
            let mut ks: Vec<usize> = a.iter().filter(|c| c.0 == row).map(|c| c.1).collect();
            ks.sort_unstable();
            ks.dedup();
            assert_eq!(ks.len(), SAMPLE_PER_ROW);
            assert!(ks.iter().all(|&k| (1..=100).contains(&k)));
        }
    }
}
