//! Host-clock probes placed around the calls into each layer, from the
//! benchmark's side of the public API.
//!
//! The program is never edited: the traced run rebuilds the engine's
//! stacks from public constructors and hands them a [`TimedModel`] in
//! place of the disk model, a [`TimedSched`] in place of the driver's
//! queue scheduler, and wraps every client-op future it spawns in
//! [`Timed`]. Each wrapper only delegates and adds up the host time spent
//! inside the call, so virtual time — and with it every report byte —
//! is unchanged; the traced run checks that against the entry point.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

use crate::report::median;

use cnp_disk::{DiskGeometry, DiskModel, DiskPos, MediaAccess, PendingMeta, QueueScheduler};
use cnp_sim::{SimDuration, SimTime};

/// Host-time accumulators shared by every wrapper of one rebuilt stack.
#[derive(Debug, Default)]
pub struct Probe {
    /// Nanoseconds inside polls of client-op futures.
    pub op_poll_ns: Cell<u64>,
    /// Nanoseconds inside disk-model calls.
    pub model_ns: Cell<u64>,
    /// Nanoseconds inside queue-scheduler picks.
    pub sched_ns: Cell<u64>,
}

impl Probe {
    /// A fresh, shareable probe.
    pub fn new() -> Rc<Probe> {
        Rc::new(Probe::default())
    }
}

/// Host nanoseconds one instrumented run spent, by layer.
pub struct Sample {
    /// The whole simulation run.
    pub run_ns: f64,
    /// Inside client-op polls.
    pub op_ns: f64,
    /// Inside disk-model calls.
    pub model_ns: f64,
    /// Inside queue-scheduler picks.
    pub sched_ns: f64,
    /// Everything else: the executor and the flush, seal and disk tasks.
    pub rest_ns: f64,
}

impl Sample {
    /// Splits a run of `run_ns` host nanoseconds by what `probe` saw.
    pub fn new(probe: &Probe, run_ns: u64) -> Sample {
        let (op, model, sched) =
            (probe.op_poll_ns.get(), probe.model_ns.get(), probe.sched_ns.get());
        Sample {
            run_ns: run_ns as f64,
            op_ns: op as f64,
            model_ns: model as f64,
            sched_ns: sched as f64,
            rest_ns: run_ns.saturating_sub(op + model + sched) as f64,
        }
    }

    /// Median over runs of one field.
    pub fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
        median(&samples.iter().map(f).collect::<Vec<_>>())
    }
}

fn add_since(acc: &Cell<u64>, t0: Instant) {
    acc.set(acc.get() + t0.elapsed().as_nanos() as u64);
}

/// A disk model that adds the host time of each mechanical computation
/// to [`Probe::model_ns`]. Every trait method delegates, defaulted ones
/// included, so the wrapped model behaves exactly like the inner one.
pub struct TimedModel {
    inner: Box<dyn DiskModel>,
    probe: Rc<Probe>,
}

impl TimedModel {
    /// Wraps `inner`, reporting into `probe`.
    pub fn boxed(inner: Box<dyn DiskModel>, probe: &Rc<Probe>) -> Box<dyn DiskModel> {
        Box::new(TimedModel { inner, probe: probe.clone() })
    }

    fn timed<R>(&self, f: impl FnOnce(&dyn DiskModel) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.inner.as_ref());
        add_since(&self.probe.model_ns, t0);
        r
    }
}

impl DiskModel for TimedModel {
    fn geometry(&self) -> &DiskGeometry {
        self.inner.geometry()
    }

    fn controller_overhead(&self) -> SimDuration {
        self.timed(|m| m.controller_overhead())
    }

    fn seek_time(&self, from_cyl: u32, to_cyl: u32) -> SimDuration {
        self.timed(|m| m.seek_time(from_cyl, to_cyl))
    }

    fn head_switch_time(&self) -> SimDuration {
        self.timed(|m| m.head_switch_time())
    }

    fn media_access(&self, now: SimTime, pos: DiskPos, lba: u64, sectors: u32) -> MediaAccess {
        self.timed(|m| m.media_access(now, pos, lba, sectors))
    }

    fn media_access_rw(
        &self,
        now: SimTime,
        pos: DiskPos,
        lba: u64,
        sectors: u32,
        write: bool,
    ) -> MediaAccess {
        self.timed(|m| m.media_access_rw(now, pos, lba, sectors, write))
    }

    fn native_depth(&self) -> u32 {
        self.inner.native_depth()
    }

    fn channels(&self) -> u32 {
        self.inner.channels()
    }
}

/// A queue scheduler that adds the host time of each pick to
/// [`Probe::sched_ns`].
pub struct TimedSched {
    inner: Box<dyn QueueScheduler>,
    probe: Rc<Probe>,
}

impl TimedSched {
    /// Wraps `inner`, reporting into `probe`.
    pub fn boxed(inner: Box<dyn QueueScheduler>, probe: &Rc<Probe>) -> Box<dyn QueueScheduler> {
        Box::new(TimedSched { inner, probe: probe.clone() })
    }
}

impl QueueScheduler for TimedSched {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, queue: &[PendingMeta], head_lba: u64) -> usize {
        let t0 = Instant::now();
        let i = self.inner.pick(queue, head_lba);
        add_since(&self.probe.sched_ns, t0);
        i
    }
}

/// A future that adds the host time spent inside its polls to
/// [`Probe::op_poll_ns`].
pub struct Timed<F> {
    fut: Pin<Box<F>>,
    probe: Rc<Probe>,
}

impl<F: Future> Timed<F> {
    /// Wraps `fut`, reporting into `probe`.
    pub fn new(fut: F, probe: &Rc<Probe>) -> Self {
        Timed { fut: Box::pin(fut), probe: probe.clone() }
    }
}

impl<F: Future> Future for Timed<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let t0 = Instant::now();
        let r = self.fut.as_mut().poll(cx);
        add_since(&self.probe.op_poll_ns, t0);
        r
    }
}
