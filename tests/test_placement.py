"""The placement table is the single source — over the *product* of options.

``repro.zero.placement.state_placement`` decides, per state class, what a
ZeRO stage partitions and which tier it may live on. Every
(stage, optimizer tier, gradient tier, parameter tier) row it accepts is
generated here and checked three ways: the one rule is what rejects the
rest (through every front door alike), the bytes each pool really holds
equal the closed form, and placement never changes the numbers.
"""

import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro import GPTConfig, InfinityConfig, ZeROConfig
from repro.analysis.memory_model import model_state_bytes, tier_state_bytes
from repro.parallel.engine import EngineConfig
from repro.runtime import virtual_rank_context
from repro.zero.factory import build_model_and_engine
from repro.zero.placement import STATE_CLASSES, state_placement
from tests.test_infinity import CFG, GPU, PLACEMENTS, train_run

pytestmark = pytest.mark.infinity

TIERS = ("device", "host", "nvme")
ONE_RULE = "requires a partitioned"


def _tiers(opt, grad, param):
    return SimpleNamespace(optimizer_tier=opt, grad_tier=grad, param_tier=param)


def _partition_rule_allows(stage, combo):
    try:
        state_placement(stage, _tiers(*combo))
    except ValueError:
        return False
    return True


def _consumer_rule_allows(combo):
    """``InfinityConfig``'s own rule: off-device gradients need an
    off-device optimizer (the host-side Adam is what consumes them)."""
    opt, grad, _ = combo
    return grad == "device" or opt != "device"


COMBOS = list(itertools.product(TIERS, repeat=3))
ROWS = [
    (stage, combo)
    for stage in (1, 2, 3)
    for combo in COMBOS
    if _partition_rule_allows(stage, combo) and _consumer_rule_allows(combo)
]
FORBIDDEN = [
    (stage, combo)
    for stage in (0, 1, 2, 3)
    for combo in COMBOS
    if not _partition_rule_allows(stage, combo)
]


def _row_id(row):
    stage, (opt, grad, param) = row
    return f"s{stage} os@{opt},g@{grad},p@{param}"


def _infinity(combo):
    opt, grad, param = combo
    return InfinityConfig(optimizer_tier=opt, grad_tier=grad, param_tier=param)


def test_table_rows_are_cumulative_and_valid_rows_count():
    assert [row.name for row in STATE_CLASSES] == ["optimizer", "grad", "param"]
    assert [row.partitioned_from for row in STATE_CLASSES] == [1, 2, 3]
    assert state_placement(0) == {
        row.name: (False, "device") for row in STATE_CLASSES
    }
    per_stage = [sum(1 for s, _ in ROWS if s == stage) for stage in (1, 2, 3)]
    assert per_stage == [3, 7, 21] and len(ROWS) == 31
    # the partition rule alone admits 1 + 3 + 9 + 27 of 4 stages x 27 combinations
    assert len(FORBIDDEN) == 4 * 27 - (1 + 3 + 9 + 27)


@pytest.mark.parametrize("row", FORBIDDEN, ids=_row_id)
def test_forbidden_combinations_raise_from_the_one_rule(row):
    """Off-device but not partitioned: the same ValueError, whichever
    door the combination comes through."""
    stage, combo = row
    with pytest.raises(ValueError, match=ONE_RULE):
        state_placement(stage, _tiers(*combo))
    if not _consumer_rule_allows(combo):
        with pytest.raises(ValueError):  # no config object to carry it further
            _infinity(combo)
        return
    inf = _infinity(combo)
    with pytest.raises(ValueError, match=ONE_RULE):
        ZeROConfig(stage=stage, infinity=inf)
    with pytest.raises(ValueError, match=ONE_RULE):
        model_state_bytes(
            1e6, 4, stage, offload_optimizer=inf.offload_optimizer,
            offload_gradients=inf.offload_gradients, page_params=inf.page_params,
        )
    with pytest.raises(ValueError, match=ONE_RULE):
        tier_state_bytes(1e6, 4, stage, infinity=inf)
    ctx = virtual_rank_context(4, gpu=GPU)
    with pytest.raises(ValueError, match=ONE_RULE):
        build_model_and_engine(
            ctx, CFG, ZeROConfig(stage=stage, memory_defrag=False),
            dp_group=ctx.world, meta=True, engine_config=EngineConfig(infinity=inf),
        )
    if "nvme" not in combo and not inf.page_params:
        with pytest.raises(ValueError, match=ONE_RULE):  # the ZeRO-Offload flags
            ZeROConfig(
                stage=stage, offload_optimizer=inf.offload_optimizer,
                offload_gradients=inf.offload_gradients,
            )


# 29 696 parameters = 4 ranks x 29 x 256 elements: every fp16 / fp32 shard is
# a whole number of the device allocator's 512-byte blocks, so the device's
# (block-rounded) byte counts can be compared exactly with the pools'.
ALIGNED_CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=58, max_seq_len=16)


def _meta_pools(stage, infinity):
    """Bytes on each pool right after constructing a meta engine."""
    ctx = virtual_rank_context(4, gpu=GPU)
    _, engine = build_model_and_engine(
        ctx, ALIGNED_CFG, ZeROConfig(stage=stage, memory_defrag=False, infinity=infinity),
        dp_group=ctx.world, meta=True,
    )
    assert engine.layout.numel == 29_696
    pools = {
        "device": ctx.device.allocated_bytes,
        "host": ctx.host.allocated_bytes,
        "nvme": ctx.nvme.allocated_bytes,
    }
    return pools, engine.layout.numel


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_pools_hold_exactly_what_the_table_says(row):
    stage, combo = row
    inf = _infinity(combo)
    pools, psi = _meta_pools(stage, inf)
    all_device, _ = _meta_pools(stage, None)
    want = tier_state_bytes(psi, nd=4, stage=stage, infinity=inf)
    assert pools["host"] == want["host"]
    assert pools["nvme"] == want["nvme"]
    assert all_device["host"] == all_device["nvme"] == 0
    # every byte that left the device landed on exactly one other pool
    assert all_device["device"] - pools["device"] == pools["host"] + pools["nvme"]
    assert all_device["device"] - pools["device"] == (
        model_state_bytes(psi, 4, stage) - want["device"]
    )


_COVERED = {(stage, (i.optimizer_tier, i.grad_tier, i.param_tier)) for stage, i in PLACEMENTS}
SAMPLE = sorted(random.Random(17).sample([r for r in ROWS if r not in _COVERED], 10))


@pytest.fixture(scope="module")
def all_device_runs():
    return {stage: train_run(stage, steps=3) for stage in {s for s, _ in SAMPLE}}


@pytest.mark.parametrize("row", SAMPLE, ids=_row_id)
def test_sampled_placements_bitwise_identical_to_all_device(row, all_device_runs):
    """Real mode, world 2, 3 steps: losses, master weights and served
    parameters equal the all-device run's, byte for byte."""
    stage, combo = row
    run = train_run(stage, steps=3, infinity=_infinity(combo))
    ref = all_device_runs[stage]
    for rank in range(2):
        assert run[rank][0] == ref[rank][0], f"rank {rank} losses diverged"
        np.testing.assert_array_equal(run[rank][1], ref[rank][1])
        np.testing.assert_array_equal(run[rank][2], ref[rank][2])
