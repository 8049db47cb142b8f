"""Pipeline-parallelism analysis (paper Section 2.1's comparison).

GPipe splits the model into S stages, cuts the batch into M micro-batches,
and idles (S-1)/(M+S-1) of each device's time in the pipeline bubble —
hiding the bubble needs M >> S, i.e. a batch roughly proportional to the
stage count, with the convergence caveats the paper cites. Memory-wise a
stage holds 1/S of the model states but all in-flight micro-batch
checkpoints.

These closed forms back the ZeRO-vs-PP bench, quantifying the paper's
claim that "ZeRO obtains the same or better memory efficiency than PP
without incurring [its] functionality, performance and convergence
related restrictions".
"""

from __future__ import annotations

from repro.analysis.memory_model import ActivationModel, model_state_bytes
from repro.zero.placement import Mesh


def pipeline_bubble_fraction(mesh: Mesh, n_microbatches: int) -> float:
    """Idle fraction of the GPipe schedule over ``mesh.pp`` stages: (S-1)/(M+S-1)."""
    if n_microbatches < 1:
        raise ValueError(f"microbatches must be >= 1, got {n_microbatches}")
    return (mesh.pp - 1) / (n_microbatches + mesh.pp - 1)


def microbatches_for_bubble(mesh: Mesh, max_bubble: float) -> int:
    """Smallest micro-batch count keeping the bubble under ``max_bubble`` —
    the 'batch size proportional to the number of partitions' requirement."""
    if not 0 < max_bubble < 1:
        raise ValueError(f"max_bubble must be in (0,1), got {max_bubble}")
    m = 1
    while pipeline_bubble_fraction(mesh, m) > max_bubble:
        m += 1
    return m


def gpipe_device_bytes(
    psi: float,
    activation: ActivationModel,
    *,
    mesh: Mesh,
    n_microbatches: int,
) -> float:
    """Per-device bytes for a GPipe stage of ``mesh``.

    Model states are the stage's rows: 1/S of the model, replicated across
    DP (GPipe keeps every state whole). Activations: with GPipe's
    rematerialization, each in-flight micro-batch contributes its
    stage-boundary checkpoint (batch_mb x seq x hidden) plus the stage's own
    layers' checkpoints, and one micro-batch's recompute working set; all M
    micro-batches are in flight at the schedule's peak. ``activation`` must
    describe ONE micro-batch (batch = microbatch size).
    """
    states = model_state_bytes(psi, mesh, 0)
    boundary = (
        activation.batch * activation.seq_len * activation.hidden
        * activation.bytes_per_element
    )
    ckpt_per_micro = activation.checkpoint_bytes(mesh=mesh)
    working = activation.working_bytes(mesh)
    acts = n_microbatches * (boundary + ckpt_per_micro) + working
    return states + acts


def zero_device_bytes_for_comparison(
    psi: float,
    activation: ActivationModel,
    *,
    mesh: Mesh,
) -> float:
    """ZeRO-3 per-device bytes for the same total device count (Nd = S)."""
    states = model_state_bytes(psi, mesh, 3)
    acts = activation.iteration_bytes(mesh=mesh, checkpointing=True)
    return states + acts
