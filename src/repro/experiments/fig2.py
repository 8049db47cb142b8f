"""Figure 2: ZeRO-100B throughput vs Megatron baseline, 1.5B-170B models.

The paper's headline speed plot: ZeRO sustains ~38-47 TFlops/GPU (15
PFlops aggregate on 400 GPUs) for 8B-100B models while the baseline
collapses once MP must cross node boundaries — up to 10x speedup, 8x
bigger trainable models.

Two reproduction paths over the exact appendix Table 5 configurations:

* ``run()`` — the calibrated analytic performance model;
* ``run_measured()`` — a *recorded-schedule* estimate: one meta-mode
  training step per configuration executes on a virtual rank of the full
  job, and the rank's actual communication events are priced with the
  alpha-beta cost model over the DGX-2 topology (LedgerTimeEstimator).
  This path times what the engines really communicate, not what the
  formulas say they should.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.perf_model import PerfModel, transformer_flops_per_replica
from repro.analysis.sim_time import LedgerTimeEstimator
from repro.configs import TABLE5_FIGURE2, ExperimentPoint
from repro.experiments.common import Claim, meta_engine
from repro.hardware.specs import GPUSpec
from repro.hardware.topology import ClusterTopology
from repro.runtime import virtual_rank_context
from repro.utils.tables import format_table
from repro.utils.units import GB
from repro.zero.config import ZeROConfig


@dataclass(frozen=True)
class Fig2Row:
    label: str
    zero_tflops: float
    baseline_tflops: float
    speedup: float
    zero_aggregate_pflops: float
    measured: bool  # priced from a recorded schedule, not the formulas


def zero_config(point: ExperimentPoint) -> ZeROConfig:
    """The point's one configuration, read by the analytic and the measured
    column alike: ZeRO-100B is Pos+g, with Pa wherever there is an MP group
    to partition over; the baseline is plain DDP under Megatron MP. (MD off:
    this experiment measures time, not fragmentation.)"""
    if point.system == "zero":
        return ZeROConfig(stage=2, partition_activations=point.mp > 1, memory_defrag=False)
    return ZeROConfig(stage=0, memory_defrag=False)


def _rows(tflops_per_gpu, measured: bool) -> list[Fig2Row]:
    """One row per model size from ``tflops_per_gpu(point)`` of its ZeRO
    and baseline points."""
    per_label: dict[str, dict[str, tuple[ExperimentPoint, float]]] = {}
    for point in TABLE5_FIGURE2:
        per_label.setdefault(point.label, {})[point.system] = (point, tflops_per_gpu(point))
    rows = []
    for label, systems in per_label.items():
        zp, zt = systems["zero"]
        _, bt = systems["baseline"]
        rows.append(
            Fig2Row(
                label=label, zero_tflops=zt, baseline_tflops=bt,
                speedup=zt / bt if bt else float("inf"),
                zero_aggregate_pflops=zt * zp.n_gpus / 1000.0, measured=measured,
            )
        )
    return rows


def run() -> list[Fig2Row]:
    pm = PerfModel()
    return _rows(
        lambda p: pm.estimate(p.model, zero_config(p), mesh=p.mesh, batch=p.batch).tflops_per_gpu,
        measured=False,
    )


def _measured_tflops(point: ExperimentPoint) -> float:
    """Record one meta-mode step of this configuration; price the ledger."""
    # A roomy virtual device: the baseline's big-MP configs only fit the
    # paper's cluster marginally, and this experiment measures *time*, not
    # capacity (Figure 6/7 measure capacity).
    ctx = virtual_rank_context(point.n_gpus, gpu=GPUSpec("fig2-virtual", 64 * int(GB), 125e12))
    engine, ids, targets = meta_engine(
        ctx, point.model, zero_config(point), mp=point.mp, batch=point.batch,
    )
    ctx.ledger.clear()
    engine.train_step(ids, targets)
    flops = transformer_flops_per_replica(point.model, point.batch) / point.mp
    estimator = LedgerTimeEstimator(ClusterTopology.for_world_size(point.n_gpus))
    return estimator.estimate(
        ctx.ledger, flops_per_gpu=flops, hidden=point.hidden
    ).tflops_per_gpu


def run_measured() -> list[Fig2Row]:
    """Figure 2 from recorded meta-mode schedules instead of formulas:
    ``fig2``'s second source, ``test_fig2_throughput_measured_schedules``."""
    return _rows(_measured_tflops, measured=True)


def render(rows: list[Fig2Row]) -> str:
    source = " (recorded meta-mode schedules)" if rows[0].measured else ""
    return format_table(
        ["model", "ZeRO TF/GPU", "baseline TF/GPU", "speedup", "ZeRO aggregate PF"],
        [
            [r.label, f"{r.zero_tflops:.1f}", f"{r.baseline_tflops:.1f}",
             f"{r.speedup:.1f}x", f"{r.zero_aggregate_pflops:.1f}"]
            for r in rows
        ],
        title=f"Figure 2{source} — throughput per GPU, ZeRO-100B vs Megatron baseline",
    )


def metrics(rows: list[Fig2Row]):
    return {
        **{f"speedup_{r.label}": (r.speedup, "x") for r in rows},
        **{f"zero_tflops_{r.label}": (r.zero_tflops, "TFLOPs/GPU") for r in rows},
    }, {"figure": "fig2", "source": "measured-schedules" if rows[0].measured else "analytic"}


def claims(rows: list[Fig2Row]) -> list[Claim]:
    by_label = {r.label: r for r in rows}
    big, small = by_label["100B"], by_label["1.5B"]
    cross_node = [by_label[label].baseline_tflops for label in ("60B", "100B", "170B")]
    return [
        Claim("100B speedup > 7x", "up to 10x", f"{big.speedup:.1f}x", big.speedup > 7),
        Claim("100B aggregate > 10 PF", "15 PF", f"{big.zero_aggregate_pflops:.1f} PF",
              big.zero_aggregate_pflops > 10),
        Claim("100B ZeRO in (30, 50) TF/GPU", "38-47 TF/GPU", f"{big.zero_tflops:.1f} TF/GPU",
              30 < big.zero_tflops < 50),
        Claim("1.5B speedup < 2x", "MP inside a node: no gap", f"{small.speedup:.1f}x",
              small.speedup < 2),
        Claim("baseline < 8 TF/GPU at 60B, 100B, 170B", "about 5 TF/GPU across nodes",
              " / ".join(f"{t:.1f}" for t in cross_node), all(t < 8 for t in cross_node)),
    ]


SOURCES = {
    "test_fig2_throughput": run,
    "test_fig2_throughput_measured_schedules": run_measured,
}
