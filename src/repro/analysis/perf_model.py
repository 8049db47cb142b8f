"""Throughput model for the paper's speed results (Figures 2, 3, 4, 8).

The model reproduces the paper's performance *mechanisms* rather than
curve-fitting its numbers:

1. **GEMM efficiency grows with hidden size.** Tensor-core utilization for
   transformer GEMMs saturates with the K dimension (= hidden):
   ``eff(h) = EFF_MAX * h / (h + H_HALF)``. Calibrated so h=8192 sits near
   the paper's 30-33% of peak and h~1900 under 20 TFlops (Sections 10.2,
   10.4).
2. **MP communication bandwidth cliffs at the node boundary.** Megatron MP
   all-reduces (12 x batch x seq x hidden bytes-ish per block, Section 8)
   run at 300 GB/s inside a DGX-2 and 12.5 GB/s across nodes — why the
   baseline collapses beyond 16-way MP (Section 10.2's 5 TFlops anchor).
3. **DP communication is per-step, compute is per-sample.** A larger
   per-GPU batch amortizes the fixed 2-3 Psi gradient/parameter traffic —
   and ZeRO's memory savings are precisely what allow the larger batch,
   producing the super-linear scaling of Figure 3.

All DP rings that cross nodes share the node's uplink with the other MP
slices, so effective per-ring bandwidth is inter-node bandwidth divided by
the GPUs per node participating in distinct rings.

No compute/communication overlap is modeled, nor a pipeline bubble (a
``pp`` axis only divides the work); the paper's qualitative results (who
wins, by what factor, where crossovers fall) do not depend on either and
it keeps the model auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.comm_model import MPCommModel, dp_volume_elements
from repro.hardware.specs import DGX2, PCIE_3_X16, NodeSpec
from repro.nn.transformer import GPTConfig
from repro.utils.units import TFLOP
from repro.zero.config import ZeROConfig
from repro.zero.placement import MODEL_AXES, Mesh

# GEMM-efficiency calibration (see module docstring).
EFF_MAX = 0.55
H_HALF = 3500.0

SEQ_LEN = 1024  # the paper's sequence length throughout (Section 3.2)
FP16_BYTES = 2.0  # communicated elements are fp16


def gemm_efficiency(hidden: int) -> float:
    """Fraction of peak half-precision FLOPs achieved by the model's GEMMs."""
    return EFF_MAX * hidden / (hidden + H_HALF)


def transformer_flops_per_replica(
    config: GPTConfig, batch: int, seq_len: int = SEQ_LEN, *, checkpointing: bool = True
) -> float:
    """Hardware FLOPs per iteration for one model replica (all MP ranks).

    The standard transformer accounting (e.g. Megatron-LM): forward is
    ~2 FLOPs per parameter-token plus attention terms; backward is 2x
    forward; checkpoint recomputation adds one more forward. With
    recompute the total is 96 b s L h^2 (1 + s/(6h) + V/(16 L h)).
    """
    b, s, L, h, v = batch, seq_len, config.n_layers, config.hidden, config.vocab_size
    base = 72.0 if not checkpointing else 96.0
    return base * b * s * L * h * h * (1.0 + s / (6.0 * h) + v / (16.0 * L * h))


def compute_split_seconds(
    config: GPTConfig,
    batch: int,
    seq_len: int,
    *,
    checkpointing: bool,
    mesh: Mesh,
    peak_flops: float,
) -> tuple[float, float]:
    """Modeled (forward, backward) GEMM seconds of one micro-batch on one rank.

    Hardware FLOPs per replica, divided over the mesh's model-parallel
    axes, over achieved GEMM throughput. With recompute the 96-FLOP accounting
    splits 1/4 forward : 3/4 backward(+recompute); without, 1/3 : 2/3.
    The traced spans, the tier runtime and ``StepInputs.uniform`` all
    price compute here, so they agree by construction.
    """
    flops = transformer_flops_per_replica(
        config, batch, seq_len, checkpointing=checkpointing
    ) / (mesh.mp * mesh.pp)  # MODEL_AXES, inlined: engines call this every micro-step
    sec = flops / (peak_flops * gemm_efficiency(config.hidden))
    f_frac = 0.25 if checkpointing else 1.0 / 3.0
    return sec * f_frac, sec * (1.0 - f_frac)


@dataclass(frozen=True)
class ThroughputBreakdown:
    """Per-step seconds and the resulting per-GPU throughput."""

    compute_s: float
    mp_comm_s: float
    dp_comm_s: float
    pa_cpu_s: float
    flops_per_gpu: float

    @property
    def step_s(self) -> float:
        return self.compute_s + self.mp_comm_s + self.dp_comm_s + self.pa_cpu_s

    @property
    def tflops_per_gpu(self) -> float:
        return self.flops_per_gpu / self.step_s / TFLOP


@dataclass(frozen=True)
class PerfModel:
    """Throughput estimator over a concrete node type (default DGX-2)."""

    node: NodeSpec = DGX2
    seq_len: int = SEQ_LEN
    pcie_bandwidth: float = PCIE_3_X16.bandwidth_bytes_per_s

    def mp_link_bandwidth(self, mesh: Mesh) -> float:
        """MP group bandwidth: NVSwitch while the group fits in a node,
        InfiniBand once it spans nodes (the Section 10.2 cliff)."""
        if mesh.mp <= self.node.gpus_per_node:
            return self.node.intra_node.bandwidth_bytes_per_s
        return self.node.inter_node.bandwidth_bytes_per_s

    @property
    def node_uplink_bandwidth(self) -> float:
        """Aggregate inter-node bandwidth per node: 800 Gbps on the paper's
        cluster = 8 InfiniBand EDR links x 12.5 GB/s = 100 GB/s."""
        return self.node.inter_node.bandwidth_bytes_per_s * 8

    def dp_comm_time(self, volume_elements: float, mesh: Mesh) -> float:
        """Time for the per-step DP traffic (hierarchical NCCL-style rings).

        Cross-node rings enter and leave each node once, so the bytes
        crossing a node's uplink per step are (rings hosted on the node) x
        (per-ring volume). With MP slices placed consecutively, a node
        hosts min(mp, gpus_per_node) distinct DP rings, each carrying
        ``volume_elements`` fp16 elements; DP-only jobs run one
        hierarchical ring (intra-node reduction first)."""
        bytes_per_ring = volume_elements * FP16_BYTES
        if mesh.world <= self.node.gpus_per_node:
            return bytes_per_ring / self.node.intra_node.bandwidth_bytes_per_s
        rings_per_node = min(mesh.mp, self.node.gpus_per_node)
        return rings_per_node * bytes_per_ring / self.node_uplink_bandwidth

    def estimate(
        self,
        config: GPTConfig,
        zero: ZeROConfig,
        *,
        mesh: Mesh,
        batch: int,
    ) -> ThroughputBreakdown:
        """Per-GPU throughput for one (model, ZeRO config, mesh, batch)
        point. Every communication term is ``comm_model``'s volume for
        ``zero.placement`` over this node's links.

        ``batch`` is the per-replica (per MP group) microbatch, matching
        the appendix tables' "Batch size" column.
        """
        psi_local = mesh.divide(float(config.total_params), MODEL_AXES)
        layers = mesh.divide(config.n_layers, ("pp",))  # this stage's blocks
        placement = zero.placement
        checkpointing = zero.checkpoint_activations
        mp = MPCommModel(batch=batch, seq_len=self.seq_len, hidden=config.hidden)

        # 1. Compute.
        flops_gpu = mesh.divide(
            transformer_flops_per_replica(config, batch, self.seq_len, checkpointing=checkpointing),
            MODEL_AXES,
        )
        compute_s = flops_gpu / (self.node.gpu.peak_flops * gemm_efficiency(config.hidden))

        # 2. MP communication (Section 8's Megatron pattern, plus Pa's gather).
        mp_comm_s = 0.0
        if mesh.mp > 1:
            per_block = mp.baseline_elements_per_block(
                checkpointing=checkpointing
            ) + mp.gather_elements_per_block(placement)
            mp_comm_s = layers * (FP16_BYTES * per_block) / self.mp_link_bandwidth(mesh)

        # 3. DP communication: the placement's per-step volume (Section 7).
        dp_comm_s = 0.0
        if mesh.dp > 1:
            dp_comm_s = self.dp_comm_time(dp_volume_elements(psi_local, placement), mesh)

        # 4. Pa+cpu PCIe traffic: each checkpoint shard goes down and back.
        shard_elements = mp.pcie_elements_per_block(placement, mesh)
        pa_cpu_s = layers * (FP16_BYTES * shard_elements) / self.pcie_bandwidth

        return ThroughputBreakdown(
            compute_s=compute_s,
            mp_comm_s=mp_comm_s,
            dp_comm_s=dp_comm_s,
            pa_cpu_s=pa_cpu_s,
            flops_per_gpu=flops_gpu,
        )
