//! `sprite-1b-nvram`: the paper's §5 experiment, Sprite trace 1b
//! replayed open-loop through `run_experiment` under `nvram-partial`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use cnp_cache::CacheConfig;
use cnp_core::{DataMode, FileSystem, FsConfig};
use cnp_disk::{
    scheduler_by_name, spawn_disk, Backend, CLook, DiskClient, DiskDriver, DiskOpts, FaultPlan,
    Hp97560, ScsiBus, SimBackend,
};
use cnp_layout::{Layout, LfsLayout, LfsParams};
use cnp_obs::{Histogram, MetricsSnapshot};
use cnp_patsy::{run_experiment, ExperimentConfig, ExperimentResult, Policy};
use cnp_sim::{Sim, SimTime};
use cnp_trace::{preset, ReplayReport, SyntheticSprite, TraceOp, TraceRecord};

use crate::layers::Layers;
use crate::probe::{Probe, Sample, TimedModel, TimedSched};
use crate::replica::replay_timed;
use crate::report::{median, peak_rss_mb, repeat_for, rounds, setup_in_child, timed, Outcome};
use crate::Args;

/// Fraction of the 24-hour trace replayed (about 7 simulated minutes).
const SCALE: f64 = 0.005;
/// Set-ups per stretch: at least this many, and for at least
/// `SETUP_SECONDS`.
const SETUP_REPS: usize = 21;
const SETUP_SECONDS: f64 = 0.5;

fn config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(Policy::NvramPartial, preset("1b").expect("trace 1b"));
    cfg.scale = SCALE;
    cfg.seed = seed;
    cfg
}

/// The records `run_experiment` generates for `cfg`.
fn generate(cfg: &ExperimentConfig) -> Vec<TraceRecord> {
    SyntheticSprite::new(cfg.trace.clone(), cfg.seed ^ 0xabcd).generate(cfg.scale)
}

/// One file system of the experiment's topology, as `run_experiment`
/// builds it: an HP 97560 on the shared bus, a C-LOOK driver, LFS and
/// the policy's cache. `probe` wraps the model and scheduler.
fn build_fs(
    h: &cnp_sim::Handle,
    cfg: &ExperimentConfig,
    i: u32,
    bus: &ScsiBus,
    probe: Option<&Rc<Probe>>,
) -> (FileSystem, DiskDriver, DiskClient) {
    let mut sched = scheduler_by_name(&cfg.iosched).unwrap_or_else(|| Box::new(CLook));
    let mut model: Box<dyn cnp_disk::DiskModel> = Box::new(Hp97560::new());
    if let Some(p) = probe {
        sched = TimedSched::boxed(sched, p);
        model = TimedModel::boxed(model, p);
    }
    let cached = !cfg.no_disk_cache;
    let opts = DiskOpts {
        scsi_id: 1 + (i / cfg.buses) as u8,
        store_data: true,
        readahead: cached,
        immediate_report: cached,
    };
    let disk = spawn_disk(h, &format!("disk{i}"), model, bus.clone(), opts, FaultPlan::default());
    let driver = DiskDriver::new(
        h,
        &format!("d{i}"),
        Backend::Sim(SimBackend { bus: bus.clone(), disk: disk.clone(), host_id: 7 }),
        sched,
    );
    let layout = Layout::Lfs(LfsLayout::new(h, driver.clone(), LfsParams::default()));
    let (flush, nvram) = cfg.policy.cache_settings(cfg.nvram_bytes);
    let fs_cfg = FsConfig {
        cache: CacheConfig { block_size: 4096, mem_bytes: cfg.mem_bytes, nvram_bytes: nvram },
        replacement: cfg.replacement.clone(),
        flush: flush.to_string(),
        flush_mode: cfg.flush_mode,
        queue_depth: cfg.queue_depth,
        data_mode: DataMode::Simulated,
        disk: cfg.disk.clone(),
        disks: cfg.disks,
        chunk_kib: cfg.chunk_kib,
        ..FsConfig::default()
    };
    (FileSystem::new(h, layout, fs_cfg), driver, disk)
}

/// Both file systems and their disks on a fresh simulation.
struct Stack {
    sim: Sim,
    systems: Vec<FileSystem>,
    drivers: Vec<DiskDriver>,
    disks: Vec<DiskClient>,
}

fn build_stack(cfg: &ExperimentConfig, probe: Option<&Rc<Probe>>) -> Stack {
    let sim = Sim::new(cfg.seed);
    let h = sim.handle();
    let buses: Vec<ScsiBus> = (0..cfg.buses).map(|_| ScsiBus::new(&h)).collect();
    let (mut systems, mut drivers, mut disks) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..cfg.filesystems {
        let (fs, driver, disk) = build_fs(&h, cfg, i, &buses[(i % cfg.buses) as usize], probe);
        systems.push(fs);
        drivers.push(driver);
        disks.push(disk);
    }
    Stack { sim, systems, drivers, disks }
}

/// Set-up as the experiment pays it: trace generation, then the two
/// stacks and their format. Returns the records with the generation and
/// build-plus-format seconds.
fn setup_once(cfg: &ExperimentConfig) -> (Vec<TraceRecord>, f64, f64) {
    let (records, gen_s) = timed(|| generate(cfg));
    let ((), build_s) = timed(|| {
        let stack = build_stack(cfg, None);
        for fs in stack.systems {
            stack.sim.handle().spawn("setup", async move {
                fs.format().await.expect("format");
                fs.shutdown();
            });
        }
        stack.sim.run_until(SimTime::from_nanos(u64::MAX / 2));
    });
    (records, gen_s, build_s)
}

/// What the records say the engine must have done.
struct Expected {
    ops: u64,
    reads: u64,
    read_bytes: u64,
    writes: u64,
    write_bytes: u64,
    span_s: f64,
}

fn expected(records: &[TraceRecord]) -> Expected {
    let mut e = Expected {
        ops: records.len() as u64,
        reads: 0,
        read_bytes: 0,
        writes: 0,
        write_bytes: 0,
        span_s: records.iter().map(|r| r.time_ns).max().unwrap_or(0) as f64 / 1e9,
    };
    for r in records {
        match r.op {
            TraceOp::Read { len, .. } => {
                e.reads += 1;
                e.read_bytes += len;
            }
            TraceOp::Write { len, .. } => {
                e.writes += 1;
                e.write_bytes += len;
            }
            _ => {}
        }
    }
    e
}

fn check_result(out: &mut Outcome, r: &ExperimentResult, want: &Expected) {
    let s = &r.fs_stats;
    out.check(r.report.ops == want.ops && r.report.errors == 0, || {
        format!("ops {} errors {} for {} records", r.report.ops, r.report.errors, want.ops)
    });
    out.check(s.writes == want.writes && s.bytes_written == want.write_bytes, || {
        format!(
            "engine wrote {} ops / {} B, records hold {} / {} B",
            s.writes, s.bytes_written, want.writes, want.write_bytes
        )
    });
    out.check(s.reads == want.reads && s.bytes_read <= want.read_bytes, || {
        format!(
            "engine read {} ops / {} B, records ask {} / {} B",
            s.reads, s.bytes_read, want.reads, want.read_bytes
        )
    });
}

/// The virtual output both the entry point and the rebuilt stack are
/// compared on: replay counts, interval rows and the rolled-up metrics.
fn fingerprint(report: &ReplayReport, metrics: &MetricsSnapshot, service_ms: f64) -> String {
    format!(
        "ops {} errors {} {:?} {:?} service {:?}\n{}",
        report.ops,
        report.errors,
        report.error_sample,
        report.intervals,
        service_ms,
        metrics.to_json(6)
    )
}

/// One stretch of set-ups, run in a child process before each round
/// (see [`setup_in_child`](crate::report::setup_in_child)): the total
/// seconds of each.
pub fn setup_stretch(seed: u64) -> Vec<f64> {
    let cfg = config(seed);
    repeat_for(SETUP_REPS, SETUP_SECONDS, || {
        let (_, gen_s, build_s) = setup_once(&cfg);
        gen_s + build_s
    })
}

/// The untraced run: whole experiments for `--seconds`, each after a
/// stretch of set-ups.
pub fn run(args: &Args) -> Outcome {
    let cfg = config(args.seed);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let set_up = || setups.extend(setup_in_child(args));
    let results = rounds(args.seconds, 2, set_up, || run_experiment(&cfg));
    let peak_rss = peak_rss_mb();
    let want = expected(&generate(&cfg));
    let first = &results[0].0;
    let first_print = fingerprint(&first.report, &first.metrics, first.mean_service_ms);
    for (r, _) in &results {
        out.attempted += want.ops;
        out.failed += r.report.errors;
        check_result(&mut out, r, &want);
        out.check(fingerprint(&r.report, &r.metrics, r.mean_service_ms) == first_print, || {
            "a repeated experiment's output differs from the first".to_string()
        });
    }
    let rates: Vec<f64> = results.iter().map(|(r, s)| r.report.ops as f64 / s).collect();
    eprintln!("round rates (1/s): {rates:.1?}");
    println!(
        "sprite-1b-nvram: {} experiments | {} ops | latency samples {} | {} NVRAM stalls | hit rate {:.3}",
        results.len(),
        first.report.ops,
        first.report.latency.count(),
        first.nvram_stalls,
        first.hit_rate
    );
    let m = &mut out.metrics;
    m.put("setup_s", median(&setups), "s");
    m.put("ops_per_host_s", median(&rates), "1/s");
    m.put("peak_rss_mb", peak_rss, "MB");
    m.put("virt_ops_per_s", first.report.ops as f64 / want.span_s, "1/s");
    m.put("virt_mean_ms", first.report.latency.mean(), "ms");
    m.put("virt_p99_ms", first.report.latency.quantile(0.99), "ms");
    out
}

/// One instrumented rebuild of `run_experiment(cfg)`.
struct Traced {
    print: String,
    ops: u64,
    errors: u64,
    steps: u64,
    run_ns: u64,
    probe: Rc<Probe>,
    /// One metrics snapshot per file system.
    fs_metrics: Vec<MetricsSnapshot>,
    platter_sectors: u64,
}

fn traced_experiment(cfg: &ExperimentConfig) -> Traced {
    let probe = Probe::new();
    let stack = build_stack(cfg, Some(&probe));
    let h = stack.sim.handle();
    let n_fs = cfg.filesystems;
    let mut per_fs: Vec<Vec<TraceRecord>> = vec![Vec::new(); n_fs as usize];
    for r in generate(cfg) {
        per_fs[(r.client % n_fs) as usize].push(r);
    }
    let reports: Rc<RefCell<Vec<ReplayReport>>> = Rc::new(RefCell::new(Vec::new()));
    for (fs, recs) in stack.systems.iter().cloned().zip(per_fs) {
        let h2 = h.clone();
        let reports = reports.clone();
        let probe = probe.clone();
        h.spawn("experiment", async move {
            fs.format().await.expect("format");
            let report = replay_timed(&h2, &fs, recs, &probe).await;
            let _ = fs.sync().await;
            reports.borrow_mut().push(report);
            fs.shutdown();
        });
    }
    let t0 = Instant::now();
    stack.sim.run_until(SimTime::from_nanos(u64::MAX / 2));
    let run_ns = t0.elapsed().as_nanos() as u64;

    // The roll-up `run_experiment` performs, over the rebuilt stack.
    let mut reports = reports.borrow_mut();
    assert_eq!(reports.len(), n_fs as usize, "an experiment task did not finish");
    let mut merged = reports.remove(0);
    for r in reports.drain(..) {
        merged.latency.merge(&r.latency);
        merged.read_latency.merge(&r.read_latency);
        merged.write_latency.merge(&r.write_latency);
        merged.ops += r.ops;
        merged.errors += r.errors;
    }
    let fs_metrics: Vec<MetricsSnapshot> = stack.systems.iter().map(|fs| fs.metrics()).collect();
    let mut metrics = MetricsSnapshot::new();
    let (mut hits, mut lookups) = (0u64, 0u64);
    for (fs, m) in stack.systems.iter().zip(&fs_metrics) {
        metrics.absorb("", m);
        let c = fs.cache_stats();
        hits += c.hits;
        lookups += c.hits + c.misses;
    }
    let (mut mean_queue, mut mean_inflight, mut overlap) = (0.0, 0.0, 0.0);
    let mut service = Histogram::latency_default();
    for d in &stack.drivers {
        let s = d.stats();
        mean_queue += s.mean_queue_len;
        mean_inflight += s.mean_inflight;
        overlap += s.overlap_fraction;
        service.merge(&s.service_time);
    }
    let n = stack.drivers.len() as f64;
    metrics.gauge("cache.hit_rate", if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 });
    metrics.gauge("disk.mean_queue_len", mean_queue / n);
    metrics.gauge("disk.mean_inflight", mean_inflight / n);
    metrics.gauge("disk.overlap_fraction", overlap / n);
    metrics.histogram("op.latency_ms", &merged.latency);
    metrics.histogram("op.read_latency_ms", &merged.read_latency);
    metrics.histogram("op.write_latency_ms", &merged.write_latency);
    Traced {
        print: fingerprint(&merged, &metrics, service.mean()),
        ops: merged.ops,
        errors: merged.errors,
        steps: stack.sim.steps(),
        run_ns,
        probe,
        fs_metrics,
        platter_sectors: stack.disks.iter().map(|d| d.platter_image().len() as u64).sum(),
    }
}

/// The traced run: per round the entry point and one instrumented
/// rebuild of it.
pub fn run_traced(args: &Args) -> Outcome {
    let cfg = config(args.seed);
    let mut out = Outcome::default();
    let all = rounds(
        args.seconds,
        1,
        || {},
        || {
            let (entry, entry_s) = timed(|| run_experiment(&cfg));
            let (traced, traced_s) = timed(|| traced_experiment(&cfg));
            (entry, entry_s, traced, traced_s)
        },
    );
    let (gens, builds): (Vec<f64>, Vec<f64>) = repeat_for(SETUP_REPS, SETUP_SECONDS, || {
        let (_, gen_s, build_s) = setup_once(&cfg);
        (gen_s, build_s)
    })
    .into_iter()
    .unzip();
    let mut overhead = Vec::new();
    let mut samples = Vec::new();
    for ((entry, entry_s, t, traced_s), _) in &all {
        let want = fingerprint(&entry.report, &entry.metrics, entry.mean_service_ms);
        out.check(t.print == want, || "rebuilt experiment differs from run_experiment".into());
        out.attempted += entry.report.ops + t.ops;
        out.failed += entry.report.errors + t.errors;
        overhead.push((traced_s - entry_s) / entry_s * 100.0);
        samples.push(Sample::new(&t.probe, t.run_ns));
    }
    let t = &all[0].0 .2;
    let ops = t.ops as f64;
    let engine = Layers::from_engines(&t.fs_metrics.iter().collect::<Vec<_>>(), ops);
    let ios = engine.ios_per_op * ops;
    let layers = Layers {
        trace_gen_ms: median(&gens) * 1e3,
        core_build_ms: median(&builds) * 1e3,
        op_poll_ns_per_op: Sample::median_of(&samples, |s| s.op_ns) / ops,
        host_ns_per_step: Sample::median_of(&samples, |s| s.run_ns) / t.steps as f64,
        rest_ns_per_op: Sample::median_of(&samples, |s| s.rest_ns) / ops,
        model_ns_per_io: Sample::median_of(&samples, |s| s.model_ns) / ios,
        sched_ns_per_io: Sample::median_of(&samples, |s| s.sched_ns) / ios,
        steps_per_op: t.steps as f64 / ops,
        platter_sectors: t.platter_sectors as f64,
        trace_overhead_pct: median(&overhead),
        ..engine
    };
    println!("sprite-1b-nvram traced: {} rounds", all.len());
    layers.put_into(&mut out.metrics);
    out
}
