//! Whole-server hardware descriptions (DGX-1 and DGX-2 presets).

use crate::bandwidth::BandwidthCurve;
use crate::topology::{DeviceId, Topology};
use crate::units::{Bytes, Secs};
use serde::{Deserialize, Serialize};

/// Compute/memory specification of one GPU model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name ("V100-32GB", "A100-40GB").
    pub name: String,
    /// Device memory capacity.
    pub memory: Bytes,
    /// Peak dense FP16 tensor-core throughput, FLOP/s.
    pub peak_flops_fp16: f64,
    /// Peak dense FP32 throughput, FLOP/s.
    pub peak_flops_fp32: f64,
    /// Model-FLOPs utilization on FP16 tensor cores (memory-bound
    /// epilogues keep large transformer stacks at 0.3-0.5 of peak).
    pub efficiency_fp16: f64,
    /// Model-FLOPs utilization at FP32 (plain GEMM pipelines run much
    /// closer to peak, typically 0.7-0.85).
    pub efficiency_fp32: f64,
    /// Memory unavailable to tensors: CUDA context, NCCL buffers,
    /// framework workspace and allocator fragmentation slack.
    pub reserved: Bytes,
}

impl GpuSpec {
    /// NVIDIA Tesla V100 SXM2 with 32 GB HBM2 (DGX-1 generation).
    pub fn v100_32gb() -> Self {
        GpuSpec {
            name: "V100-32GB".to_owned(),
            memory: Bytes::gib(32),
            peak_flops_fp16: 125.0e12,
            peak_flops_fp32: 15.7e12,
            efficiency_fp16: 0.42,
            efficiency_fp32: 0.75,
            reserved: Bytes::mib(512),
        }
    }

    /// NVIDIA A100 with 40 GB HBM2e (DGX-2-class server in the paper).
    pub fn a100_40gb() -> Self {
        GpuSpec {
            name: "A100-40GB".to_owned(),
            memory: Bytes::gib(40),
            peak_flops_fp16: 312.0e12,
            peak_flops_fp32: 19.5e12,
            efficiency_fp16: 0.38,
            efficiency_fp32: 0.75,
            reserved: Bytes::mib(512),
        }
    }

    /// The Hopper GPU of a Grace-Hopper superchip: 96 GB HBM3 plus a
    /// dedicated 512 GB LPDDR5X CPU-side pool per GPU (paper §V).
    pub fn grace_hopper() -> Self {
        GpuSpec {
            name: "GH200-96GB".to_owned(),
            memory: Bytes::gib(96),
            peak_flops_fp16: 989.0e12,
            peak_flops_fp32: 67.0e12,
            efficiency_fp16: 0.42,
            efficiency_fp32: 0.75,
            reserved: Bytes::mib(512),
        }
    }

    /// Achievable FLOP/s at the given precision.
    pub fn achievable_flops(&self, fp16: bool) -> f64 {
        if fp16 {
            self.peak_flops_fp16 * self.efficiency_fp16
        } else {
            self.peak_flops_fp32 * self.efficiency_fp32
        }
    }

    /// Memory actually available for tensors.
    pub fn usable_memory(&self) -> Bytes {
        self.memory.saturating_sub(self.reserved)
    }

    /// Time to execute `flops` floating-point operations on this GPU.
    pub fn compute_time(&self, flops: f64, fp16: bool) -> Secs {
        assert!(flops >= 0.0, "flops must be non-negative");
        flops / self.achievable_flops(fp16)
    }
}

/// Host CPU side of the server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Host DRAM capacity available for pinned swap buffers.
    pub memory: Bytes,
    /// Aggregate host FLOP/s usable for a CPU Adam optimizer
    /// (relevant to the ZeRO-Offload baseline).
    pub flops: f64,
}

/// NVMe SSD array (relevant to the ZeRO-Infinity baseline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NvmeSpec {
    /// Usable capacity.
    pub capacity: Bytes,
    /// Sustained read bandwidth, bytes/s.
    pub read_bw: f64,
    /// Sustained write bandwidth, bytes/s.
    pub write_bw: f64,
}

/// A complete multi-GPU server: GPUs, interconnect, host memory, NVMe.
///
/// # Example
///
/// ```
/// use mpress_hw::Machine;
///
/// let m = Machine::dgx2();
/// assert_eq!(m.gpu_count(), 8);
/// assert!(m.gpu().memory > mpress_hw::Bytes::gib(39));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    name: String,
    gpu: GpuSpec,
    cpu: CpuSpec,
    nvme: Option<NvmeSpec>,
    topology: Topology,
    pcie: BandwidthCurve,
}

impl Machine {
    /// The paper's DGX-1 testbed: AWS p3dn.24xlarge, 8x V100-32GB,
    /// asymmetric NVLink, 768 GB host memory.
    pub fn dgx1() -> Self {
        Machine {
            name: "DGX-1 (8x V100-32GB)".to_owned(),
            gpu: GpuSpec::v100_32gb(),
            cpu: CpuSpec {
                memory: Bytes::gib(768),
                flops: 3.0e12,
            },
            nvme: Some(NvmeSpec {
                capacity: Bytes::gib(1800),
                read_bw: 16.0e9,
                write_bw: 12.0e9,
            }),
            topology: Topology::dgx1(),
            pcie: BandwidthCurve::pcie3_x16(),
        }
    }

    /// The paper's DGX-2-class testbed: 8x A100-40GB behind NVSwitch,
    /// 948 GB host memory, 6 TB NVMe whose sustained bandwidth is notably
    /// *lower* than the DGX-1's (the paper calls this out to explain the
    /// ZeRO-Infinity inversion in Fig. 8b).
    pub fn dgx2() -> Self {
        Machine {
            name: "DGX-2 (8x A100-40GB)".to_owned(),
            gpu: GpuSpec::a100_40gb(),
            cpu: CpuSpec {
                memory: Bytes::gib(948),
                flops: 4.0e12,
            },
            nvme: Some(NvmeSpec {
                capacity: Bytes::gib(6000),
                read_bw: 6.0e9,
                write_bw: 4.0e9,
            }),
            topology: Topology::dgx2(),
            pcie: BandwidthCurve::pcie3_x16(),
        }
    }

    /// A commodity 8-GPU server with **no NVLink**: same V100-class GPUs
    /// as the DGX-1 but PCIe-only peer communication and a smaller host.
    ///
    /// The floor of the paper's "democratizing" claim (§I): most multi-GPU
    /// servers are not DGX boxes. On this machine D2D swap has no donors to
    /// reach and intra-operator parallelism pays PCIe prices for every
    /// per-layer collective, so the inter-operator + host-swap/recompute
    /// side of MPress is all that remains — useful for sensitivity studies
    /// and the §II motivation experiment.
    pub fn commodity() -> Self {
        Machine {
            name: "Commodity (8x V100-32GB, PCIe-only)".to_owned(),
            gpu: GpuSpec::v100_32gb(),
            cpu: CpuSpec {
                memory: Bytes::gib(384),
                flops: 2.0e12,
            },
            nvme: Some(NvmeSpec {
                capacity: Bytes::gib(2000),
                read_bw: 3.0e9,
                write_bw: 2.0e9,
            }),
            topology: Topology::pcie_only(8),
            pcie: BandwidthCurve::pcie3_x16(),
        }
    }

    /// Starts building a custom machine.
    pub fn builder() -> MachineBuilder {
        MachineBuilder::default()
    }

    /// Human-readable machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The GPU model installed in every slot.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Host CPU description.
    pub fn cpu(&self) -> &CpuSpec {
        &self.cpu
    }

    /// NVMe array, if present.
    pub fn nvme(&self) -> Option<&NvmeSpec> {
        self.nvme.as_ref()
    }

    /// The NVLink topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// PCIe curve between any one GPU and host memory.
    pub fn pcie(&self) -> &BandwidthCurve {
        &self.pcie
    }

    /// Number of GPUs.
    pub fn gpu_count(&self) -> usize {
        self.topology.gpu_count()
    }

    /// Total GPU memory across all devices.
    pub fn total_gpu_memory(&self) -> Bytes {
        self.gpu.memory * self.gpu_count() as u64
    }

    /// Time to move `n` bytes between two GPUs over `lanes` parallel NVLink
    /// lanes. Returns `None` when `lanes == 0` (unreachable pair).
    pub fn try_nvlink_transfer_time(&self, n: Bytes, lanes: u32) -> Option<Secs> {
        if lanes == 0 {
            return None;
        }
        Some(BandwidthCurve::nvlink_lanes(lanes).transfer_time(n))
    }

    /// Like [`Machine::try_nvlink_transfer_time`] but panics on zero lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn nvlink_transfer_time(&self, n: Bytes, lanes: u32) -> Secs {
        self.try_nvlink_transfer_time(n, lanes)
            .expect("cannot transfer over zero NVLink lanes")
    }

    /// Time to move `n` bytes between one GPU and pinned host memory.
    pub fn pcie_transfer_time(&self, n: Bytes) -> Secs {
        self.pcie.transfer_time(n)
    }

    /// Time to read (`write == false`) or write `n` bytes on NVMe.
    ///
    /// # Panics
    ///
    /// Panics when the machine has no NVMe array.
    pub fn nvme_transfer_time(&self, n: Bytes, write: bool) -> Secs {
        let nvme = self.nvme.as_ref().expect("machine has no NVMe array");
        let bw = if write { nvme.write_bw } else { nvme.read_bw };
        BandwidthCurve::nvme(bw).transfer_time(n)
    }

    /// Time of a striped D2D transfer from `source` to several peers in
    /// parallel: the slowest stripe dominates.
    ///
    /// Stripes with zero lanes toward their importer are rejected.
    ///
    /// # Panics
    ///
    /// Panics if a stripe targets an NVLink-unreachable peer or the source
    /// itself.
    pub fn striped_transfer_time(&self, source: DeviceId, stripes: &[(DeviceId, Bytes)]) -> Secs {
        let mut worst: Secs = 0.0;
        for &(dst, bytes) in stripes {
            assert_ne!(dst, source, "stripe cannot target the source GPU");
            let lanes = self.topology.nvlink_lanes(source, dst);
            assert!(lanes > 0, "{source} cannot reach {dst} over NVLink");
            let t = self.nvlink_transfer_time(bytes, lanes);
            if t > worst {
                worst = t;
            }
        }
        worst
    }
}

/// Builder for custom [`Machine`]s (used by tests and sensitivity studies).
///
/// # Example
///
/// ```
/// use mpress_hw::{Machine, GpuSpec, Topology, Bytes};
///
/// let m = Machine::builder()
///     .name("mini")
///     .gpu(GpuSpec::v100_32gb())
///     .topology(Topology::dgx1())
///     .cpu_memory(Bytes::gib(256))
///     .build();
/// assert_eq!(m.gpu_count(), 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MachineBuilder {
    name: Option<String>,
    gpu: Option<GpuSpec>,
    cpu_memory: Option<Bytes>,
    cpu_flops: Option<f64>,
    nvme: Option<NvmeSpec>,
    topology: Option<Topology>,
    pcie: Option<BandwidthCurve>,
}

impl MachineBuilder {
    /// Sets the machine name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Sets the GPU model.
    pub fn gpu(mut self, gpu: GpuSpec) -> Self {
        self.gpu = Some(gpu);
        self
    }

    /// Sets host memory capacity.
    pub fn cpu_memory(mut self, memory: Bytes) -> Self {
        self.cpu_memory = Some(memory);
        self
    }

    /// Sets host compute throughput (for CPU optimizers).
    pub fn cpu_flops(mut self, flops: f64) -> Self {
        self.cpu_flops = Some(flops);
        self
    }

    /// Installs an NVMe array.
    pub fn nvme(mut self, nvme: NvmeSpec) -> Self {
        self.nvme = Some(nvme);
        self
    }

    /// Sets the NVLink topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Overrides the PCIe curve.
    pub fn pcie(mut self, pcie: BandwidthCurve) -> Self {
        self.pcie = Some(pcie);
        self
    }

    /// Finishes the machine. Missing fields default to DGX-1 components.
    pub fn build(self) -> Machine {
        let base = Machine::dgx1();
        Machine {
            name: self.name.unwrap_or_else(|| "custom".to_owned()),
            gpu: self.gpu.unwrap_or(base.gpu),
            cpu: CpuSpec {
                memory: self.cpu_memory.unwrap_or(base.cpu.memory),
                flops: self.cpu_flops.unwrap_or(base.cpu.flops),
            },
            nvme: self.nvme.or(base.nvme),
            topology: self.topology.unwrap_or(base.topology),
            pcie: self.pcie.unwrap_or(base.pcie),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgx1_preset_matches_paper_hardware() {
        let m = Machine::dgx1();
        assert_eq!(m.gpu_count(), 8);
        assert_eq!(m.gpu().memory, Bytes::gib(32));
        assert_eq!(m.total_gpu_memory(), Bytes::gib(256));
        assert_eq!(m.cpu().memory, Bytes::gib(768));
    }

    #[test]
    fn dgx2_preset_matches_paper_hardware() {
        let m = Machine::dgx2();
        assert_eq!(m.gpu().memory, Bytes::gib(40));
        assert_eq!(m.cpu().memory, Bytes::gib(948));
        assert!(m.nvme().is_some());
        // The rented DGX-2's SSD bandwidth is lower than DGX-1's (paper IV-C).
        assert!(m.nvme().unwrap().read_bw < Machine::dgx1().nvme().unwrap().read_bw);
    }

    #[test]
    fn a100_faster_than_v100() {
        let v = GpuSpec::v100_32gb();
        let a = GpuSpec::a100_40gb();
        assert!(a.achievable_flops(true) > 2.0 * v.achievable_flops(true));
    }

    #[test]
    fn compute_time_scales_linearly() {
        let g = GpuSpec::v100_32gb();
        let t1 = g.compute_time(1.0e12, true);
        let t2 = g.compute_time(2.0e12, true);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn d2d_transfer_beats_pcie() {
        let m = Machine::dgx1();
        let n = Bytes::mib(256);
        let d2d = m.nvlink_transfer_time(n, 2);
        let host = m.pcie_transfer_time(n);
        assert!(d2d < host / 3.0);
    }

    #[test]
    fn zero_lane_transfer_is_none() {
        let m = Machine::dgx1();
        assert!(m.try_nvlink_transfer_time(Bytes::mib(1), 0).is_none());
    }

    #[test]
    fn striped_transfer_bounded_by_slowest_stripe() {
        let m = Machine::dgx1();
        let src = DeviceId(0);
        // GPU0 -> GPU3 (2 lanes) and GPU0 -> GPU1 (1 lane), equal bytes:
        // the single-lane stripe dominates.
        let stripes = vec![
            (DeviceId(3), Bytes::mib(100)),
            (DeviceId(1), Bytes::mib(100)),
        ];
        let t = m.striped_transfer_time(src, &stripes);
        let single = m.nvlink_transfer_time(Bytes::mib(100), 1);
        assert!((t - single).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot reach")]
    fn striped_transfer_rejects_unreachable_peer() {
        let m = Machine::dgx1();
        let _ = m.striped_transfer_time(DeviceId(0), &[(DeviceId(5), Bytes::mib(1))]);
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let m = Machine::builder()
            .name("x")
            .cpu_memory(Bytes::gib(64))
            .build();
        assert_eq!(m.name(), "x");
        assert_eq!(m.cpu().memory, Bytes::gib(64));
        assert_eq!(m.gpu().name, "V100-32GB");
    }

    #[test]
    fn nvme_times_use_direction() {
        let m = Machine::dgx1();
        let rd = m.nvme_transfer_time(Bytes::gib(1), false);
        let wr = m.nvme_transfer_time(Bytes::gib(1), true);
        assert!(wr > rd, "writes are slower than reads on this preset");
    }
}
