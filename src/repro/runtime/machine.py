"""Analytic machine model (paper Section 7, "Experimental Setup").

The paper's cluster is an NVIDIA A100 DGX SuperPOD: 8 A100-80GB GPUs per
node joined by NVLink/NVSwitch, nodes joined by 8 InfiniBand NICs.  The
model below captures the handful of parameters the roofline and
communication models need.  Absolute values are representative of that
hardware; the benchmark conclusions depend on ratios (bandwidth vs. launch
overhead vs. network bandwidth), not on the absolute numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MachineConfig:
    """Description of the simulated target machine."""

    num_gpus: int = 1
    gpus_per_node: int = 8

    #: Effective HBM2e bandwidth of one A100 (bytes / second).
    gpu_memory_bandwidth: float = 1.5e12
    #: FP64 peak of one A100 without tensor cores (flops / second).
    gpu_peak_flops: float = 9.7e12
    #: Device memory per GPU in bytes (80 GB A100).
    gpu_memory_capacity: float = 80e9

    #: Latency of launching one GPU kernel (seconds).
    kernel_launch_latency: float = 8e-6
    #: Runtime (Legion) overhead per index-task launch: dependence
    #: analysis, mapping and messaging (seconds).  The paper reports a
    #: minimum effective task granularity of about 1 ms for Legion.
    task_launch_overhead: float = 2.5e-4
    #: Additional fixed latency of a device-wide reduction (seconds).
    reduction_latency: float = 1.0e-5

    #: Effective per-GPU NVLink bandwidth within a node (bytes / second).
    nvlink_bandwidth: float = 250e9
    #: Effective per-GPU share of inter-node InfiniBand bandwidth
    #: (8 NICs x ~25 GB/s shared by 8 GPUs; bytes / second).
    infiniband_bandwidth: float = 25e9
    #: One-way network latency (seconds).
    network_latency: float = 5e-6

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError("the machine needs at least one GPU")
        if self.gpus_per_node < 1:
            raise ValueError("a node needs at least one GPU")

    # ------------------------------------------------------------------
    # Topology helpers.
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes needed to host ``num_gpus`` GPUs."""
        return max(1, math.ceil(self.num_gpus / self.gpus_per_node))

    @property
    def multi_node(self) -> bool:
        """True when communication may cross the node interconnect."""
        return self.num_gpus > self.gpus_per_node

    def with_gpus(self, num_gpus: int) -> "MachineConfig":
        """A copy of the configuration with a different GPU count."""
        from dataclasses import replace

        return replace(self, num_gpus=num_gpus)

    # ------------------------------------------------------------------
    # Communication primitives (alpha-beta model).
    # ------------------------------------------------------------------
    def interconnect_bandwidth(self) -> float:
        """Per-GPU bandwidth of the slowest interconnect in use."""
        return self.infiniband_bandwidth if self.multi_node else self.nvlink_bandwidth

    def point_to_point_time(self, message_bytes: float) -> float:
        """Time to move ``message_bytes`` between two GPUs."""
        if message_bytes <= 0:
            return 0.0
        return self.network_latency + message_bytes / self.interconnect_bandwidth()

    def allgather_time(self, bytes_per_gpu: float) -> float:
        """Time for every GPU to obtain every other GPU's contribution."""
        if self.num_gpus <= 1 or bytes_per_gpu <= 0:
            return 0.0
        incoming = bytes_per_gpu * (self.num_gpus - 1)
        steps = math.ceil(math.log2(self.num_gpus))
        return steps * self.network_latency + incoming / self.interconnect_bandwidth()

    def allreduce_time(self, message_bytes: float) -> float:
        """Time of a ring/tree all-reduce of ``message_bytes`` per GPU."""
        if self.num_gpus <= 1:
            return 0.0
        steps = math.ceil(math.log2(self.num_gpus))
        if message_bytes <= 0:
            return steps * self.network_latency
        return steps * self.network_latency + 2.0 * message_bytes / self.interconnect_bandwidth()

    def scalar_reduction_time(self) -> float:
        """Time to reduce one scalar future across the machine."""
        return self.allreduce_time(8.0)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine({self.num_gpus} GPUs over {self.num_nodes} nodes)"
