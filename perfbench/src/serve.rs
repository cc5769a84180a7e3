//! `serve-zipf-256`: 256 closed-loop NFS clients through the full PFS
//! wire path (`run_serve_cell`).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use cnp_cache::CacheConfig;
use cnp_core::{DataMode, FileSystem, FlushMode, FsConfig};
use cnp_disk::driver::{default_bus_for, default_opts_for};
use cnp_disk::{
    spawn_disk, Backend, CLook, DiskDriver, FaultPlan, Hp97560, Hp97560Params, SimBackend,
};
use cnp_obs::Metric;
use cnp_patsy::{
    derive_shards, format_client_sweep_json, format_serve_bench_json, run_client_cell,
    run_serve_cell, ClientCell, ClientSweepConfig, ServeBenchConfig,
};
use cnp_pfs::{NfsServer, ServeConfig};
use cnp_sim::{Sim, SimTime};
use cnp_trace::TraceOp;
use cnp_workload::{Scenario, WorkloadKind};

use crate::probe::{Probe, Sample, TimedModel, TimedSched};
use crate::replica::run_clients_timed;
use crate::report::{median, peak_rss_mb, repeat_for, rounds, setup_in_child, timed, Outcome};
use crate::{Args, Layers};

/// NFS clients in the fleet.
const CLIENTS: u32 = 256;
/// Per-client operation scale (fraction of the nominal day).
const SCALE: f64 = 0.005;
/// Set-ups per stretch: at least this many, and for at least
/// `SETUP_SECONDS`.
const SETUP_REPS: usize = 21;
const SETUP_SECONDS: f64 = 0.3;

fn serve_cfg(seed: u64) -> ServeBenchConfig {
    ServeBenchConfig::new(WorkloadKind::Zipf, vec![CLIENTS], seed, SCALE)
}

fn engine_cfg(seed: u64) -> ClientSweepConfig {
    ClientSweepConfig::new(WorkloadKind::Zipf, vec![CLIENTS], seed, SCALE)
}

/// What the generated scenario says the cell must do.
struct Expected {
    trace_ops: u64,
    write_bytes: u64,
}

fn expected(scenario: &Scenario) -> Expected {
    let ops = scenario.plans.iter().flat_map(|p| p.ops.iter());
    let write_bytes = ops
        .filter_map(|cop| match cop.op {
            TraceOp::Write { len, .. } => Some(len),
            _ => None,
        })
        .sum();
    Expected { trace_ops: scenario.plans.iter().map(|p| p.ops.len() as u64).sum(), write_bytes }
}

/// The serve cell's set-up, rebuilt from public constructors: scenario
/// generation, then the stack `run_serve_cell` builds (disk, LFS, a
/// 1 GB cache, the NFS server) and its format. Returns the scenario
/// with the generation and build-plus-format seconds.
fn setup_once(seed: u64) -> (Scenario, f64, f64) {
    let cfg = serve_cfg(seed);
    let (scenario, gen_s) =
        timed(|| Scenario::generate(cfg.workload, CLIENTS, cfg.seed, cfg.scale));
    let ((), build_s) = timed(|| {
        let sim = Sim::new(cfg.seed);
        let h = sim.handle();
        let disk = Hp97560::with_params(Hp97560Params::default());
        let driver = cnp_disk::sim_disk_driver(&h, "setup", Box::new(disk), Box::new(CLook));
        let layout = cfg.layout.build_scaled(&h, driver);
        let fs = FileSystem::new(&h, layout, fs_config(cfg.policy, cfg.queue_depth));
        let srv = NfsServer::with_config(
            fs,
            ServeConfig { max_transfer: cfg.rsize, ..ServeConfig::default() },
        );
        h.spawn("setup", async move {
            srv.fs().format().await.expect("format");
            srv.fs().shutdown();
        });
        sim.run_until(SimTime::from_nanos(u64::MAX / 2));
    });
    (scenario, gen_s, build_s)
}

/// The engine configuration both serve and engine-only cells use at
/// fleet size.
fn fs_config(policy: cnp_patsy::Policy, queue_depth: u32) -> FsConfig {
    let (flush, nvram) = policy.cache_settings(8 * 1024 * 1024);
    FsConfig {
        cache: CacheConfig {
            block_size: 4096,
            mem_bytes: (64u64 << 20).max(CLIENTS as u64 * (4 << 20)),
            nvram_bytes: nvram,
        },
        flush: flush.to_string(),
        flush_mode: FlushMode::Async,
        queue_depth,
        data_mode: DataMode::Simulated,
        shards: derive_shards(CLIENTS),
        ..FsConfig::default()
    }
}

fn summary(m: Option<&Metric>) -> (u64, f64, f64) {
    match m {
        Some(Metric::Summary { count, mean, p99, .. }) => (*count, *mean, *p99),
        _ => (0, f64::NAN, f64::NAN),
    }
}

/// One stretch of set-ups, run in a child process before each round
/// (see [`setup_in_child`](crate::report::setup_in_child)): the total
/// seconds of each.
pub fn setup_stretch(seed: u64) -> Vec<f64> {
    repeat_for(SETUP_REPS, SETUP_SECONDS, || {
        let (_, gen_s, build_s) = setup_once(seed);
        gen_s + build_s
    })
}

/// The untraced run: whole serve cells for `--seconds`, each after a
/// stretch of set-ups.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = serve_cfg(args.seed);
    let mut setups = Vec::new();
    let set_up = || setups.extend(setup_in_child(args));
    let cells = rounds(args.seconds, 3, set_up, || run_serve_cell(&cfg, CLIENTS));
    let peak_rss = peak_rss_mb();
    let want = expected(&Scenario::generate(cfg.workload, CLIENTS, cfg.seed, cfg.scale));
    let first = &cells[0].0;
    let first_json = format_serve_bench_json(&cfg, std::slice::from_ref(first));
    for (cell, _) in &cells {
        out.attempted += cell.wire_requests;
        out.failed += cell.errors;
        out.check(cell.errors == 0, || format!("{} client-visible errors", cell.errors));
        out.check(cell.trace_ops == want.trace_ops, || {
            format!("trace ops {} != generated {}", cell.trace_ops, want.trace_ops)
        });
        out.check(cell.wire_requests >= cell.trace_ops, || {
            format!("wire requests {} < trace ops {}", cell.wire_requests, cell.trace_ops)
        });
        out.check(cell.bytes_in >= want.write_bytes, || {
            format!("bytes in {} < written bytes {}", cell.bytes_in, want.write_bytes)
        });
        out.check(format_serve_bench_json(&cfg, std::slice::from_ref(cell)) == first_json, || {
            "a repeated cell's report differs from the first".to_string()
        });
    }
    let rates: Vec<f64> = cells.iter().map(|(c, s)| c.wire_requests as f64 / s).collect();
    eprintln!("round rates (1/s): {rates:.1?}");
    let (count, mean, p99) = summary(first.metrics.get("serve.latency_ms"));
    println!(
        "serve-zipf-256: {} cells | {} trace ops -> {} wire requests | latency samples {count}",
        cells.len(),
        first.trace_ops,
        first.wire_requests
    );
    let m = &mut out.metrics;
    m.put("setup_s", median(&setups), "s");
    m.put("ops_per_host_s", median(&rates), "1/s");
    m.put("peak_rss_mb", peak_rss, "MB");
    m.put("virt_ops_per_s", first.wire_ops_per_sec, "1/s");
    m.put("virt_mean_ms", mean, "ms");
    m.put("virt_p99_ms", p99, "ms");
    out
}

/// What one instrumented engine-only cell measured.
struct Traced {
    cell: ClientCell,
    steps: u64,
    run_ns: u64,
    probe: Rc<Probe>,
    platter_sectors: u64,
}

/// `run_client_cell(cfg, CLIENTS)` rebuilt from public constructors,
/// with the disk model, the queue scheduler and every client op timed.
fn traced_client_cell(cfg: &ClientSweepConfig) -> Traced {
    let n = CLIENTS;
    let probe = Probe::new();
    let sim = Sim::new(cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(n as u64));
    let h = sim.handle();
    let mut disk_params = Hp97560Params::default();
    disk_params.geometry =
        disk_params.geometry.scale_cylinders(n.div_ceil(256).next_power_of_two().max(1));
    // `sim_disk_driver`, spelled out so the model and scheduler can be
    // wrapped and the disk client kept.
    let model = TimedModel::boxed(Box::new(Hp97560::with_params(disk_params)), &probe);
    let bus = default_bus_for(&h, model.as_ref());
    let opts = default_opts_for(model.as_ref());
    let name = format!("mc{n}");
    let disk =
        spawn_disk(&h, &format!("disk:{name}"), model, bus.clone(), opts, FaultPlan::default());
    let driver = DiskDriver::new(
        &h,
        &name,
        Backend::Sim(SimBackend { bus, disk: disk.clone(), host_id: 7 }),
        TimedSched::boxed(Box::new(CLook), &probe),
    );
    let layout = cfg.layout.build_scaled(&h, driver.clone());
    let fs = FileSystem::new(&h, layout, fs_config(cfg.policy, cfg.queue_depth));
    let scenario = Scenario::generate(cfg.workload, n, cfg.seed, cfg.scale);
    type CellOut = Option<(
        cnp_workload::WorkloadReport,
        Vec<(u32, u64)>,
        Vec<(&'static str, cnp_sim::LockStats)>,
        cnp_obs::MetricsSnapshot,
    )>;
    let out: Rc<RefCell<CellOut>> = Rc::new(RefCell::new(None));
    let out2 = out.clone();
    let h2 = h.clone();
    let probe2 = probe.clone();
    h.spawn("client-sweep", async move {
        fs.format().await.expect("format");
        let report = run_clients_timed(&h2, &fs, &scenario, &probe2).await;
        fs.sync().await.expect("sync");
        *out2.borrow_mut() = Some((report, fs.flushes_by_client(), fs.lock_stats(), fs.metrics()));
        fs.shutdown();
    });
    let t0 = Instant::now();
    sim.run_until(SimTime::from_nanos(u64::MAX / 2));
    let run_ns = t0.elapsed().as_nanos() as u64;
    let (report, flush_attr, lock_stats, metrics) =
        out.borrow_mut().take().expect("traced client cell did not finish");
    let d = driver.stats();
    let cell = ClientCell {
        clients: n,
        agg_ops_per_sec: report.aggregate_ops_per_sec(),
        fairness: report.fairness(),
        mean_queue: d.mean_queue_len,
        mean_inflight: d.mean_inflight,
        overlap: d.overlap_fraction,
        flush_attr,
        lock_stats,
        shards: derive_shards(n),
        metrics,
        report,
    };
    Traced {
        cell,
        steps: sim.steps(),
        run_ns,
        probe,
        platter_sectors: disk.platter_image().len() as u64,
    }
}

/// The traced run: per round one serve cell, one engine-only cell
/// through the entry point and one instrumented rebuild of it.
pub fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let scfg = serve_cfg(args.seed);
    let ecfg = engine_cfg(args.seed);
    let all = rounds(
        args.seconds,
        1,
        || {},
        || {
            let (serve, serve_s) = timed(|| run_serve_cell(&scfg, CLIENTS));
            let (engine, engine_s) = timed(|| run_client_cell(&ecfg, CLIENTS));
            let (traced, traced_s) = timed(|| traced_client_cell(&ecfg));
            (serve, serve_s, engine, engine_s, traced, traced_s)
        },
    );
    let (gens, builds): (Vec<f64>, Vec<f64>) = repeat_for(SETUP_REPS, SETUP_SECONDS, || {
        let (_, gen_s, build_s) = setup_once(args.seed);
        (gen_s, build_s)
    })
    .into_iter()
    .unzip();
    let mut wire_ns = Vec::new();
    let mut overhead = Vec::new();
    let mut samples = Vec::new();
    for ((serve, serve_s, engine, engine_s, traced, traced_s), _) in &all {
        let want = format_client_sweep_json(&ecfg, std::slice::from_ref(engine));
        let got = format_client_sweep_json(&ecfg, std::slice::from_ref(&traced.cell));
        out.check(want == got, || "rebuilt engine cell differs from run_client_cell".into());
        out.check(serve.errors == 0 && engine.report.errors == 0, || "errors in a cell".into());
        out.attempted += serve.wire_requests + engine.report.ops + traced.cell.report.ops;
        out.failed += serve.errors + engine.report.errors + traced.cell.report.errors;
        eprintln!("round: serve {serve_s:.3} s | engine {engine_s:.3} s | rebuilt {traced_s:.3} s");
        wire_ns.push((serve_s - engine_s) * 1e9 / serve.wire_requests as f64);
        overhead.push((traced_s - engine_s) / engine_s * 100.0);
        samples.push(Sample::new(&traced.probe, traced.run_ns));
    }
    let (serve, _, _, _, traced, _) = &all[0].0;
    let ops = traced.cell.report.ops as f64;
    let engine = Layers::from_engines(&[&traced.cell.metrics], ops);
    let ios = engine.ios_per_op * ops;
    let layers = Layers {
        workload_gen_ms: median(&gens) * 1e3,
        core_build_ms: median(&builds) * 1e3,
        op_poll_ns_per_op: Sample::median_of(&samples, |s| s.op_ns) / ops,
        host_ns_per_step: Sample::median_of(&samples, |s| s.run_ns) / traced.steps as f64,
        rest_ns_per_op: Sample::median_of(&samples, |s| s.rest_ns) / ops,
        model_ns_per_io: Sample::median_of(&samples, |s| s.model_ns) / ios,
        sched_ns_per_io: Sample::median_of(&samples, |s| s.sched_ns) / ios,
        steps_per_op: traced.steps as f64 / ops,
        platter_sectors: traced.platter_sectors as f64,
        wire_ns_per_req: median(&wire_ns),
        bytes_in_per_req: serve.bytes_in as f64 / serve.wire_requests as f64,
        bytes_out_per_req: serve.bytes_out as f64 / serve.wire_requests as f64,
        wire_reqs_per_op: serve.wire_requests as f64 / serve.trace_ops as f64,
        lookup_hit_rate: serve.lookup_hit_rate,
        attr_hit_rate: serve.attr_hit_rate,
        trace_overhead_pct: median(&overhead),
        ..engine
    };
    println!("serve-zipf-256 traced: {} rounds", all.len());
    layers.put_into(&mut out.metrics);
    out
}
