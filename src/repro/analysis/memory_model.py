"""Closed-form memory model (paper Sections 3 and 5).

All byte counts use the paper's decimal GB and its constants:

* Mixed-precision Adam, K = 12: fp16 params (2 Psi) + fp16 grads (2 Psi) +
  fp32 master/momentum/variance (12 Psi) = 16 Psi bytes total (Section 3.1).
* Per-device model states under ZeRO-DP (Figure 1 / Table 1):
    baseline:   (2 + 2 + K) Psi
    Pos:        2 Psi + 2 Psi + K Psi / Nd
    Pos+g:      2 Psi + (2 + K) Psi / Nd
    Pos+g+p:    (4 + K) Psi / Nd
* Activations for a GPT-like transformer (Section 3.2, footnote 3):
    total activation elements ~= 12 x hidden x batch x seq x layers
  (fp16, so x2 bytes). Checkpointing stores one input activation per block
  (batch x seq x hidden each) and recomputes the rest one block at a time.

Which of those terms a rank holds, and on which tier, is read off the
resolved rows of ``repro.zero.placement`` (``ZeROConfig.placement``):
``state_bytes_by_tier`` is the one loop over the three per-Psi rows and
``ActivationModel.checkpoint_bytes`` reads the ``activation`` row. How
many ranks share a row is the ``Mesh``'s: each row is divided by its mesh
axes there and nowhere else. No function here takes a stage's or an
option's consequences as booleans, or a parallel degree as a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.zero.config import CONSTANT_BUFFER_NUMEL
from repro.zero.placement import MODEL_AXES, STATE_CLASSES, Mesh, Placed, state_placement

if TYPE_CHECKING:
    from repro.zero.config import ZeROConfig

#: stage 0, no tiers, no Pa: every class replicated on the device.
BASELINE = state_placement(0)


def state_bytes_by_tier(
    psi: float,
    mesh: Mesh,
    placement: dict[str, Placed],
    tile_bytes: int | None = None,
) -> dict[str, float]:
    """Per-rank model-state bytes on each tier under a resolved placement:
    the one loop over the table's per-Psi rows. Model parallelism gives
    this rank Psi / (mp x pp) parameters; a replicated class costs its full
    bytes/param of those on the device, a partitioned one 1/dp of that on
    its tier (shards this rank owns — activations and transient
    materializations are not model state). Off-device parameters
    (ZeRO-Infinity, paged in per unit gather) leave only memory-centric
    tiling's staging bound, ``tile_bytes``, on the device."""
    if psi < 0:
        raise ValueError(f"need psi >= 0, got psi={psi}")
    psi = mesh.divide(psi, MODEL_AXES)  # this rank's parameters: every per-Psi row's split
    rows = [  # summed in Figure 1's order: parameters, gradients, optimizer state
        (row.bytes_per_param, row.group, *placement[row.name])
        for row in reversed(STATE_CLASSES)
        if row.bytes_per_param is not None
    ]
    replicated = sum(per_param for per_param, _, partitioned, _ in rows if not partitioned)
    out = {"device": replicated * psi, "host": 0.0, "nvme": 0.0}
    if placement["param"].tier != "device":
        out["device"] += float(tile_bytes or 0)
    for per_param, group, partitioned, tier in rows:
        if partitioned:
            out[tier] += mesh.divide(per_param * psi, (group,))
    return out


def model_state_bytes(psi: float, mesh: Mesh = Mesh(), stage: int = 0) -> float:
    """Per-device model-state bytes for a Psi-parameter model with every
    class on the device (Figure 1)."""
    return state_bytes_by_tier(psi, mesh, state_placement(stage))["device"]


def max_model_params(memory_bytes: float, mesh: Mesh = Mesh(), stage: int = 0) -> float:
    """Largest Psi whose model states fit in ``memory_bytes`` on every rank
    of ``mesh`` (Table 2 left)."""
    denom = model_state_bytes(1.0, mesh, stage)
    return memory_bytes / denom


@dataclass(frozen=True)
class ActivationModel:
    """Activation memory for one training iteration on one GPU.

    ``checkpoint_interval`` — layers per stored checkpoint. The paper's
    Section 6.1 worked example (100B model, "about 33 GB ... to store the
    activation checkpoints") corresponds to interval 2; one checkpoint per
    layer (interval 1, our engines' behaviour and the Section 8 analysis)
    gives exactly twice that. A larger interval stores fewer checkpoints
    but recomputes (and transiently holds) ``interval`` layers at once.
    Each method takes the ``Mesh`` the GPU is one rank of.
    """

    hidden: int
    n_layers: int
    seq_len: int
    batch: int
    bytes_per_element: int = 2  # fp16 activations
    checkpoint_interval: int = 1

    def __post_init__(self):
        if not 1 <= self.checkpoint_interval <= max(self.n_layers, 1):
            raise ValueError(
                f"checkpoint_interval must be in [1, n_layers], got "
                f"{self.checkpoint_interval} for {self.n_layers} layers"
            )

    @property
    def elements_per_layer(self) -> float:
        """Paper footnote 3: ~12 x hidden x batch x seq per transformer layer."""
        return 12.0 * self.hidden * self.batch * self.seq_len

    def total_bytes(self, mesh: Mesh = Mesh()) -> float:
        """All activations, no checkpointing: replicated LN/residual inputs
        are shared, the big internals split across MP ranks."""
        return mesh.divide(
            self.elements_per_layer * self.n_layers * self.bytes_per_element, ("mp",)
        )

    def checkpoint_bytes(
        self, placement: dict[str, Placed] = BASELINE, mesh: Mesh = Mesh()
    ) -> float:
        """On-device stored checkpoints: one block-input (batch x seq x
        hidden) per layer, placed by the ``activation`` row.

        A pipeline stage holds only its own layers' checkpoints. Replicated,
        each MP rank holds every checkpoint (Section 6.1's redundancy);
        partitioned (Pa) divides by the MP degree; off-device (Pa+cpu)
        moves them off.
        """
        partitioned, tier = placement["activation"]
        if tier != "device":
            return 0.0
        per_ckpt = self.batch * self.seq_len * self.hidden * self.bytes_per_element
        n_checkpoints = -(-self.n_layers // self.checkpoint_interval)  # ceil
        row = STATE_CLASSES[-1]  # the activation row
        axes = row.split + ((row.group,) if partitioned else ())
        return mesh.divide(per_ckpt * n_checkpoints, axes)

    def working_bytes(self, mesh: Mesh = Mesh()) -> float:
        """Transient working set while (re)computing one checkpoint segment
        (``checkpoint_interval`` blocks at once)."""
        return mesh.divide(
            self.elements_per_layer * self.checkpoint_interval * self.bytes_per_element, ("mp",)
        )

    def iteration_bytes(
        self, placement: dict[str, Placed] = BASELINE, mesh: Mesh = Mesh(),
        *, checkpointing: bool = True,
    ) -> float:
        if not checkpointing:
            return self.total_bytes(mesh)
        return self.checkpoint_bytes(placement, mesh) + self.working_bytes(mesh)


def temporary_buffer_bytes(psi: float, zero: ZeROConfig) -> float:
    """Fused-buffer footprint (Section 6.2): a full fp32 flattened buffer
    (4 Psi bytes — 6 GB at 1.5B) without CB, the fixed-size buffer
    (``CONSTANT_BUFFER_NUMEL`` fp32 elements) with CB."""
    if zero.constant_buffers:
        return 4.0 * CONSTANT_BUFFER_NUMEL
    return 4.0 * psi


def total_device_bytes(
    psi: float,
    activation: ActivationModel,
    zero: ZeROConfig,
    *,
    mesh: Mesh = Mesh(),
) -> float:
    """End-to-end per-GPU memory of one rank of ``mesh`` under ``zero``'s
    placement: model states + activations + temporary buffers. MP splits
    Psi across ranks; ZeRO-DP then splits the per-rank states across the DP
    group (the Nd x Nm compounding of Section 1)."""
    placement = zero.placement
    tile_bytes = None if zero.infinity is None else zero.infinity.tile_bytes
    states = state_bytes_by_tier(psi, mesh, placement, tile_bytes)["device"]
    acts = activation.iteration_bytes(placement, mesh, checkpointing=zero.checkpoint_activations)
    if placement["optimizer"].tier != "device" and not zero.constant_buffers:
        # The fp32 update runs host-side, so the transient full-model
        # fused buffer is never allocated on the device. (With CB the
        # persistent constant buffer is still charged — engines allocate
        # it unconditionally.)
        buffers = 0.0
    else:
        buffers = temporary_buffer_bytes(mesh.divide(psi, MODEL_AXES), zero)
    return states + acts + buffers
