"""The title claim: a trillion-parameter model fits 1024 x 32GB GPUs with
Pos+g+p — verified against the simulated allocator, not just the formula."""

import numpy as np
import pytest

from repro.comm.virtual import VirtualGroup
from repro.nn.transformer import GPTConfig
from repro.runtime import virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.utils.units import GB
from repro.zero.config import ZeROConfig
from repro.zero.factory import build_model_and_engine

ONE_T = GPTConfig(n_layers=310, hidden=16384, n_heads=128)
N_GPUS, MP, BATCH = 1024, 16, 2


def run_1t_step():
    ctx = virtual_rank_context(N_GPUS)
    mp_group = VirtualGroup.of_size(MP, member_rank=0)
    mp_group.attach_ledger(0, ctx.ledger)
    dp_group = VirtualGroup(tuple(range(0, N_GPUS, MP)), member_rank=0)
    dp_group.attach_ledger(0, ctx.ledger)
    zero = ZeROConfig(stage=3, partition_activations=True, memory_defrag=False)
    model, engine = build_model_and_engine(
        ctx, ONE_T, zero, dp_group=dp_group, mp_group=mp_group, meta=True,
    )
    init_peak = ctx.device.max_allocated_bytes, ctx.device.max_reserved_bytes
    ctx.device.reset_peak_stats()
    ids = Tensor.meta((BATCH, 1024), np.int64, device=ctx.device)
    targets = Tensor.meta((BATCH, 1024), np.int64, device=ctx.device)
    ctx.ledger.clear()
    engine.train_step(ids, targets)
    return ctx, engine, init_peak


@pytest.fixture(scope="module")
def one_t():
    return run_1t_step()


def test_model_is_a_trillion_parameters():
    assert ONE_T.total_params == pytest.approx(1e12, rel=0.01)


def test_fits_32gb_device(one_t):
    ctx, _, (_, init_reserved) = one_t
    # Built and stepped without OOM.
    assert max(init_reserved, ctx.device.max_reserved_bytes) < 32 * GB


def test_persistent_shards_match_table1(one_t):
    """Table 1: 1T at Nd=1024 (well, Psi/MP at Nd=64) -> 15.6 GB of states."""
    _, engine, _ = one_t
    shards = (
        engine.param_shard.nbytes + engine.grad_shard.nbytes + engine.opt_state.nbytes
    )
    assert shards / GB == pytest.approx(15.6, rel=0.03)


def test_stage3_volume_holds_at_scale(one_t):
    ctx, engine, _ = one_t
    psi_local_bytes = ONE_T.total_params / MP * 2
    dp_volume = ctx.ledger.nominal_bytes(phase="param-gather") + ctx.ledger.nominal_bytes(
        phase="grad-reduce"
    )
    # Vocab padding and the replicated-embedding share push a hair over 3x.
    assert dp_volume / psi_local_bytes == pytest.approx(3.0, rel=0.05)


def test_init_peak_is_below_the_steady_peak(one_t):
    """Construction is charged, unit by unit beside the shards: building
    the 1T model never holds more than a training step does."""
    ctx, _, (init_peak, _) = one_t
    assert init_peak <= ctx.device.max_allocated_bytes
