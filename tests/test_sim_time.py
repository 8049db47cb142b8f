"""Ledger-driven time estimation vs the analytic performance model."""

import numpy as np
import pytest

from repro.analysis.perf_model import PerfModel, transformer_flops_per_replica
from repro.analysis.sim_time import LedgerTimeEstimator
from repro.comm.virtual import VirtualGroup
from repro.configs import TABLE5_FIGURE2
from repro.hardware.topology import ClusterTopology
from repro.runtime import virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.utils.units import GB
from repro.zero.config import C4
from repro.zero.factory import build_model_and_engine


def record_meta_step(point):
    """One meta-mode step on a virtual rank; returns (ledger, flops/GPU)."""
    ctx = virtual_rank_context(point.n_gpus)
    mp_group = VirtualGroup.of_size(point.mp, member_rank=0)
    mp_group.attach_ledger(0, ctx.ledger)
    dp_group = VirtualGroup(tuple(range(0, point.n_gpus, point.mp)), member_rank=0)
    dp_group.attach_ledger(0, ctx.ledger)
    model, engine = build_model_and_engine(
        ctx, point.model, C4, dp_group=dp_group, mp_group=mp_group,
        meta=True, md_region_bytes=int(2 * GB),
    )
    ids = Tensor.meta((point.batch, 1024), np.int64, device=ctx.device)
    tgt = Tensor.meta((point.batch, 1024), np.int64, device=ctx.device)
    ctx.ledger.clear()
    engine.train_step(ids, tgt)
    flops = transformer_flops_per_replica(point.model, point.batch) / point.mp
    return ctx.ledger, flops


@pytest.fixture(scope="module")
def point_100b():
    return next(p for p in TABLE5_FIGURE2 if p.label == "100B" and p.system == "zero")


def test_ledger_estimate_in_paper_regime(point_100b):
    ledger, flops = record_meta_step(point_100b)
    est = LedgerTimeEstimator(ClusterTopology.for_world_size(point_100b.n_gpus)).estimate(
        ledger, flops_per_gpu=flops, hidden=point_100b.hidden
    )
    # The recorded-schedule estimate must land in the paper's regime.
    assert 25 < est.tflops_per_gpu < 55
    assert est.compute_s > est.collective_s  # compute-dominated, as measured


def test_ledger_estimate_tracks_analytic_model(point_100b):
    """Recorded-schedule time ~ analytic PerfModel time (same mechanisms,
    different derivations: within a small factor, never orders apart)."""
    ledger, flops = record_meta_step(point_100b)
    est = LedgerTimeEstimator(ClusterTopology.for_world_size(point_100b.n_gpus)).estimate(
        ledger, flops_per_gpu=flops, hidden=point_100b.hidden
    )
    analytic = PerfModel().estimate(
        point_100b.model, C4, mesh=point_100b.mesh, batch=point_100b.batch
    )
    assert est.total_s == pytest.approx(analytic.step_s, rel=0.5)
    assert est.compute_s == pytest.approx(analytic.compute_s, rel=0.01)


def test_pcie_events_priced_separately(point_100b):
    from repro.zero.config import C5

    ctx = virtual_rank_context(point_100b.n_gpus)
    mp_group = VirtualGroup.of_size(point_100b.mp, member_rank=0)
    mp_group.attach_ledger(0, ctx.ledger)
    dp_group = VirtualGroup(tuple(range(0, point_100b.n_gpus, point_100b.mp)), member_rank=0)
    dp_group.attach_ledger(0, ctx.ledger)
    model, engine = build_model_and_engine(
        ctx, point_100b.model, C5, dp_group=dp_group, mp_group=mp_group,
        meta=True, md_region_bytes=int(2 * GB),
    )
    ids = Tensor.meta((point_100b.batch, 1024), np.int64, device=ctx.device)
    tgt = Tensor.meta((point_100b.batch, 1024), np.int64, device=ctx.device)
    ctx.ledger.clear()
    engine.train_step(ids, tgt)
    flops = transformer_flops_per_replica(point_100b.model, point_100b.batch) / point_100b.mp
    est = LedgerTimeEstimator(ClusterTopology.for_world_size(point_100b.n_gpus)).estimate(
        ctx.ledger, flops_per_gpu=flops, hidden=point_100b.hidden
    )
    assert est.pcie_s > 0  # Pa+cpu's offload traffic shows up
