//! The client drivers of the engine-only entry points, rebuilt from
//! public calls so that every client-op future can be timed.
//!
//! [`run_clients_timed`] mirrors `cnp_workload::run_clients` with
//! default options, and [`replay_timed`] mirrors `cnp_trace::replay`:
//! the same tasks are spawned in the same order and await the same
//! futures, so the simulation's seeded schedule — and every virtual
//! number — is the program's own. The traced run compares the reports
//! with the entry points' byte for byte.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

use cnp_core::FileSystem;
use cnp_layout::Ino;
use cnp_obs::Histogram;
use cnp_sim::stats::{IntervalReporter, IntervalRow};
use cnp_sim::{Handle, SimDuration};
use cnp_trace::{apply_op, ReplayReport, TraceOp, TraceRecord};
use cnp_workload::{ClientReport, Scenario, WorkloadReport};

use crate::probe::{Probe, Timed};

struct ClientsState {
    per_client: BTreeMap<u32, (Histogram, u64, u64)>,
    latency: Histogram,
    errors: u64,
    error_sample: Vec<String>,
}

/// `run_clients(handle, fs, scenario, RunOptions::default())` with each
/// client op timed into `probe`.
pub async fn run_clients_timed(
    handle: &Handle,
    fs: &FileSystem,
    scenario: &Scenario,
    probe: &Rc<Probe>,
) -> WorkloadReport {
    let per_client =
        scenario.plans.iter().map(|p| (p.client, (Histogram::latency_default(), 0, 0))).collect();
    let state = Rc::new(RefCell::new(ClientsState {
        per_client,
        latency: Histogram::latency_default(),
        errors: 0,
        error_sample: Vec::new(),
    }));
    let start = handle.now();
    let mut handles = Vec::new();
    for plan in &scenario.plans {
        let fs = fs.clone();
        let h = handle.clone();
        let state = state.clone();
        let plan = plan.clone();
        let probe = probe.clone();
        handles.push(handle.spawn(&format!("wl-client{}", plan.client), async move {
            let cfs = fs.client(plan.client);
            let mut open: HashMap<String, Ino> = HashMap::new();
            for cop in &plan.ops {
                if cop.think_ns > 0 {
                    h.sleep(SimDuration::from_nanos(cop.think_ns)).await;
                }
                let t0 = h.now();
                let result = Timed::new(apply_op(&cfs, &cop.op, &mut open), &probe).await;
                let latency = h.now() - t0;
                let mut st = state.borrow_mut();
                let entry = st.per_client.get_mut(&plan.client).expect("row per plan");
                match result {
                    Ok(()) => {
                        let ms = latency.as_millis_f64();
                        entry.0.record(ms);
                        entry.1 += 1;
                        st.latency.record(ms);
                    }
                    Err(e) => {
                        entry.2 += 1;
                        st.errors += 1;
                        if st.error_sample.len() < 5 {
                            st.error_sample.push(format!(
                                "client {}: {e} on {}",
                                plan.client,
                                cop.op.mnemonic()
                            ));
                        }
                    }
                }
            }
        }));
    }
    for jh in handles {
        jh.await;
    }
    let makespan = handle.now() - start;
    let secs = makespan.as_nanos() as f64 / 1e9;
    let st = Rc::try_unwrap(state).ok().expect("clients done").into_inner();
    let per_client: Vec<ClientReport> = st
        .per_client
        .into_iter()
        .map(|(client, (latency, ops, errors))| ClientReport {
            client,
            ops,
            errors,
            latency,
            ops_per_sec: if secs == 0.0 { 0.0 } else { ops as f64 / secs },
        })
        .collect();
    let (ops, errors) = per_client.iter().fold((0, 0), |(o, e), c| (o + c.ops, e + c.errors));
    WorkloadReport {
        per_client,
        latency: st.latency,
        ops,
        errors,
        error_sample: st.error_sample,
        makespan,
        acked: Vec::new(),
    }
}

struct ReplayState {
    latency: Histogram,
    read_latency: Histogram,
    write_latency: Histogram,
    intervals: IntervalReporter,
    ops: u64,
    errors: u64,
    error_sample: Vec<String>,
    indeterminate: BTreeSet<String>,
}

/// `replay(handle, fs, records)` with each trace op timed into `probe`.
pub async fn replay_timed(
    handle: &Handle,
    fs: &FileSystem,
    records: Vec<TraceRecord>,
    probe: &Rc<Probe>,
) -> ReplayReport {
    let state = Rc::new(RefCell::new(ReplayState {
        latency: Histogram::latency_default(),
        read_latency: Histogram::latency_default(),
        write_latency: Histogram::latency_default(),
        intervals: IntervalReporter::paper_default(),
        ops: 0,
        errors: 0,
        error_sample: Vec::new(),
        indeterminate: BTreeSet::new(),
    }));
    let mut per_client: BTreeMap<u32, Vec<TraceRecord>> = BTreeMap::new();
    for r in records {
        per_client.entry(r.client).or_default().push(r);
    }
    let mut handles = Vec::new();
    let epoch = handle.now();
    for (client, recs) in per_client {
        let fs = fs.clone();
        let h = handle.clone();
        let state = state.clone();
        let probe = probe.clone();
        handles.push(handle.spawn(&format!("client{client}"), async move {
            let mut open: HashMap<String, Ino> = HashMap::new();
            let cfs = fs.client(recs.first().map(|r| r.client).unwrap_or(0));
            for rec in recs {
                let due = epoch + SimDuration::from_nanos(rec.time_ns);
                if h.now() < due {
                    h.sleep_until(due).await;
                }
                let t0 = h.now();
                let result = Timed::new(apply_op(&cfs, &rec.op, &mut open), &probe).await;
                let latency = h.now() - t0;
                let mut st = state.borrow_mut();
                match result {
                    Ok(()) => {
                        st.ops += 1;
                        let ms = latency.as_millis_f64();
                        st.latency.record(ms);
                        st.intervals.record(t0, ms);
                        match rec.op {
                            TraceOp::Read { .. } => st.read_latency.record(ms),
                            TraceOp::Write { .. } => st.write_latency.record(ms),
                            _ => {}
                        }
                    }
                    Err(e) => {
                        st.errors += 1;
                        if st.error_sample.len() < 5 {
                            st.error_sample.push(format!("{e} on {:?}", rec.op.mnemonic()));
                        }
                        if matches!(rec.op, TraceOp::Delete { .. } | TraceOp::Truncate { .. }) {
                            st.indeterminate.insert(rec.op.path().to_string());
                        }
                    }
                }
            }
        }));
    }
    for jh in handles {
        jh.await;
    }
    let end = handle.now();
    let st = Rc::try_unwrap(state).ok().expect("clients done").into_inner();
    let intervals: Vec<IntervalRow> = st.intervals.finish(end);
    ReplayReport {
        latency: st.latency,
        read_latency: st.read_latency,
        write_latency: st.write_latency,
        intervals,
        ops: st.ops,
        errors: st.errors,
        error_sample: st.error_sample,
        acked: Vec::new(),
        indeterminate: st.indeterminate.into_iter().collect(),
    }
}
