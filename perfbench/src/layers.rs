//! The per-layer metrics of a traced run.
//!
//! Every traced run prints every field. A layer a workload does not
//! reach (PFS outside `serve-zipf-256`, the checker outside `check-1a`)
//! did no work there and reads 0.

use cnp_obs::{Metric, MetricsSnapshot};

use crate::report::Metrics;

/// One traced run's layer figures; see the README for which end-to-end
/// metric each should move.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub workload_gen_ms: f64,
    pub trace_gen_ms: f64,
    pub core_build_ms: f64,
    pub op_poll_ns_per_op: f64,
    pub lock_wait_ms_per_op: f64,
    pub lock_contentions_per_op: f64,
    pub steps_per_op: f64,
    pub host_ns_per_step: f64,
    pub rest_ns_per_op: f64,
    pub cache_hit_rate: f64,
    pub nvram_stalls_per_op: f64,
    pub flushed_per_op: f64,
    pub evictions_per_op: f64,
    pub segments_written: f64,
    pub meta_writes_per_op: f64,
    pub cleaner_moved: f64,
    pub model_ns_per_io: f64,
    pub sched_ns_per_io: f64,
    pub ios_per_op: f64,
    pub service_ms: f64,
    pub queue_ms: f64,
    pub platter_sectors: f64,
    pub wire_ns_per_req: f64,
    pub bytes_in_per_req: f64,
    pub bytes_out_per_req: f64,
    pub wire_reqs_per_op: f64,
    pub lookup_hit_rate: f64,
    pub attr_hit_rate: f64,
    pub check_cells: f64,
    pub power_cut_cells: f64,
    pub cell_ms: f64,
    pub setup_ms_per_cell: f64,
    pub replay_ms_per_cell: f64,
    pub capture_ms_per_cell: f64,
    pub verify_ms_per_cell: f64,
    pub history_ms: f64,
    pub trace_overhead_pct: f64,
}

/// Sample-weighted mean of the histogram summary `name` over
/// `snapshots` (0 when no snapshot holds a sample).
fn summary_mean(snapshots: &[&MetricsSnapshot], name: &str) -> f64 {
    let (mut n, mut sum) = (0u64, 0.0);
    for m in snapshots {
        if let Some(Metric::Summary { count, mean, .. }) = m.get(name) {
            n += count;
            sum += *count as f64 * mean;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

impl Layers {
    /// The lock, cache, layout and disk figures of one or more engines'
    /// metrics snapshots (one per file system or per cell), summed, per
    /// client op where the name says so.
    pub fn from_engines(snapshots: &[&MetricsSnapshot], ops: f64) -> Layers {
        let count =
            |name: &str| snapshots.iter().map(|m| m.counter_value(name)).sum::<u64>() as f64;
        // Lock families (`ns`, `layout`, `layout-range`) report per family.
        let lock_sum = |suffix: &str| -> f64 {
            let mut total = 0.0;
            for m in snapshots {
                for (name, metric) in m.iter() {
                    let family = name.strip_prefix("lock.").and_then(|n| n.strip_suffix(suffix));
                    match (family, metric) {
                        (Some(f), Metric::Counter(v)) if !f.contains('.') => total += *v as f64,
                        (Some(f), Metric::Gauge(v)) if !f.contains('.') => total += v,
                        _ => {}
                    }
                }
            }
            total
        };
        let hits = count("cache.hits");
        let lookups = hits + count("cache.misses");
        Layers {
            lock_wait_ms_per_op: lock_sum(".wait_ms") / ops,
            lock_contentions_per_op: lock_sum(".contentions") / ops,
            cache_hit_rate: if lookups == 0.0 { 0.0 } else { hits / lookups },
            nvram_stalls_per_op: count("cache.nvram_stalls") / ops,
            flushed_per_op: count("fs.blocks_flushed") / ops,
            evictions_per_op: count("cache.evictions") / ops,
            segments_written: count("layout.segments_written"),
            meta_writes_per_op: count("layout.meta_writes") / ops,
            cleaner_moved: count("layout.cleaner_moved"),
            ios_per_op: count("disk.completed") / ops,
            service_ms: summary_mean(snapshots, "disk.service_ms"),
            queue_ms: summary_mean(snapshots, "disk.queue_ms"),
            ..Layers::default()
        }
    }

    /// Adds every layer metric, by name and unit, to `out`.
    pub fn put_into(&self, out: &mut Metrics) {
        let rows: [(&'static str, f64, &'static str); 37] = [
            ("workload.gen_ms", self.workload_gen_ms, "ms"),
            ("trace.gen_ms", self.trace_gen_ms, "ms"),
            ("core.build_ms", self.core_build_ms, "ms"),
            ("core.op_poll_ns_per_op", self.op_poll_ns_per_op, "ns"),
            ("lock.wait_ms_per_op", self.lock_wait_ms_per_op, "ms"),
            ("lock.contentions_per_op", self.lock_contentions_per_op, "count"),
            ("sim.steps_per_op", self.steps_per_op, "count"),
            ("sim.host_ns_per_step", self.host_ns_per_step, "ns"),
            ("sim.rest_ns_per_op", self.rest_ns_per_op, "ns"),
            ("cache.hit_rate", self.cache_hit_rate, "ratio"),
            ("cache.nvram_stalls_per_op", self.nvram_stalls_per_op, "count"),
            ("cache.flushed_per_op", self.flushed_per_op, "count"),
            ("cache.evictions_per_op", self.evictions_per_op, "count"),
            ("layout.segments_written", self.segments_written, "count"),
            ("layout.meta_writes_per_op", self.meta_writes_per_op, "count"),
            ("layout.cleaner_moved", self.cleaner_moved, "count"),
            ("disk.model_ns_per_io", self.model_ns_per_io, "ns"),
            ("disk.sched_ns_per_io", self.sched_ns_per_io, "ns"),
            ("disk.ios_per_op", self.ios_per_op, "count"),
            ("disk.service_ms", self.service_ms, "ms"),
            ("disk.queue_ms", self.queue_ms, "ms"),
            ("disk.platter_sectors", self.platter_sectors, "count"),
            ("pfs.wire_ns_per_req", self.wire_ns_per_req, "ns"),
            ("pfs.bytes_in_per_req", self.bytes_in_per_req, "B"),
            ("pfs.bytes_out_per_req", self.bytes_out_per_req, "B"),
            ("pfs.wire_reqs_per_op", self.wire_reqs_per_op, "count"),
            ("pfs.lookup_hit_rate", self.lookup_hit_rate, "ratio"),
            ("pfs.attr_hit_rate", self.attr_hit_rate, "ratio"),
            ("check.cells", self.check_cells, "count"),
            ("check.power_cut_cells", self.power_cut_cells, "count"),
            ("check.cell_ms", self.cell_ms, "ms"),
            ("check.setup_ms_per_cell", self.setup_ms_per_cell, "ms"),
            ("check.replay_ms_per_cell", self.replay_ms_per_cell, "ms"),
            ("fault.capture_ms_per_cell", self.capture_ms_per_cell, "ms"),
            ("fault.verify_ms_per_cell", self.verify_ms_per_cell, "ms"),
            ("check.history_ms", self.history_ms, "ms"),
            ("bench.trace_overhead_pct", self.trace_overhead_pct, "%"),
        ];
        for (name, v, unit) in rows {
            out.put(name, v, unit);
        }
    }
}
