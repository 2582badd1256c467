//! Simulation results.

use mpress_hw::{Bytes, DeviceId, Secs};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which memory pool overflowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// A GPU's HBM.
    Gpu,
    /// Host pinned DRAM.
    Host,
    /// The NVMe array.
    Nvme,
}

impl fmt::Display for PoolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolKind::Gpu => write!(f, "GPU"),
            PoolKind::Host => write!(f, "host"),
            PoolKind::Nvme => write!(f, "NVMe"),
        }
    }
}

/// An out-of-memory failure observed during simulation — the red-cross
/// marks of the paper's Figs. 7 and 8.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OomEvent {
    /// Which pool overflowed.
    pub pool: PoolKind,
    /// The overflowing GPU, or `None` for off-GPU pools.
    pub device: Option<DeviceId>,
    /// Simulated time of the overflow.
    pub time: Secs,
    /// Bytes in use at the overflow.
    pub used: Bytes,
    /// The capacity that was exceeded.
    pub capacity: Bytes,
}

impl fmt::Display for OomEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.device {
            Some(d) => write!(
                f,
                "OOM on {d} at {:.3}s: {} used of {}",
                self.time, self.used, self.capacity
            ),
            None => write!(
                f,
                "{} OOM at {:.3}s: {} used of {}",
                self.pool, self.time, self.used, self.capacity
            ),
        }
    }
}

/// Everything one simulation run reports. The default is an empty
/// report: no ops, zero makespan, no traffic and no OOM.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// End-to-end time of the simulated window.
    pub makespan: Secs,
    /// Start time of every op (graph op-id order).
    pub op_start: Vec<Secs>,
    /// End time of every op.
    pub op_end: Vec<Secs>,
    /// Peak bytes per GPU.
    pub device_peak: Vec<Bytes>,
    /// Peak host pinned-memory bytes.
    pub host_peak: Bytes,
    /// Peak NVMe bytes used by tiered swaps.
    pub nvme_peak: Bytes,
    /// First out-of-memory event, if the job failed.
    pub oom: Option<OomEvent>,
    /// Total bytes moved over NVLink by D2D swaps (both directions).
    pub d2d_traffic: Bytes,
    /// Total bytes moved over PCIe by GPU-CPU swaps (both directions,
    /// including the PCIe leg of NVMe-tier swaps).
    pub host_traffic: Bytes,
    /// Total bytes staged to/from the NVMe array.
    pub nvme_traffic: Bytes,
    /// Total compute time added by recomputation across all devices.
    pub recompute_time: Secs,
    /// Per-device `(time, used-bytes)` samples when timeline tracking was
    /// enabled.
    pub timelines: Option<Vec<Vec<(Secs, Bytes)>>>,
    /// Executed-task trace when tracing was enabled.
    pub trace: Option<Vec<crate::trace::TraceEvent>>,
    /// Stream/stall/link metrics when `SimConfig::metrics` was enabled.
    pub metrics: Option<crate::metrics::SimMetrics>,
}

impl SimReport {
    /// Whether the job completed without overflowing any memory pool.
    pub fn succeeded(&self) -> bool {
        self.oom.is_none()
    }

    /// Training throughput in samples per second for a window that
    /// processed `samples`.
    ///
    /// # Panics
    ///
    /// Panics if the makespan is zero.
    pub fn throughput(&self, samples: usize) -> f64 {
        assert!(self.makespan > 0.0, "zero makespan");
        samples as f64 / self.makespan
    }

    /// Achieved model TFLOPS for a window that executed `total_flops`
    /// floating-point operations (the paper's Figs. 7/8 metric).
    pub fn achieved_tflops(&self, total_flops: f64) -> f64 {
        assert!(self.makespan > 0.0, "zero makespan");
        total_flops / self.makespan / 1e12
    }

    /// The largest per-device peak.
    pub fn max_device_peak(&self) -> Bytes {
        self.device_peak
            .iter()
            .copied()
            .max()
            .unwrap_or(Bytes::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            makespan: 2.0,
            op_start: vec![0.0],
            op_end: vec![2.0],
            device_peak: vec![Bytes::gib(10), Bytes::gib(4)],
            ..SimReport::default()
        }
    }

    #[test]
    fn throughput_and_tflops() {
        let r = report();
        assert_eq!(r.throughput(64), 32.0);
        assert_eq!(r.achieved_tflops(4.0e12), 2.0);
        assert_eq!(r.max_device_peak(), Bytes::gib(10));
        assert!(r.succeeded());
    }

    #[test]
    fn oom_display() {
        let e = OomEvent {
            pool: PoolKind::Gpu,
            device: Some(DeviceId(0)),
            time: 1.0,
            used: Bytes::gib(33),
            capacity: Bytes::gib(32),
        };
        let s = e.to_string();
        assert!(s.contains("GPU0") && s.contains("OOM"), "{s}");
    }
}
