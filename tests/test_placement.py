"""The placement table is the single source — over the *product* of options.

``repro.zero.placement.state_placement`` decides, per state class, what is
partitioned over which group and which tier it may live on. Every
(stage, optimizer tier, gradient tier, parameter tier) row it accepts is
generated here and checked four ways: the one rule is what rejects the
rest (through every front door alike, the activation row included), the
bytes each pool really holds equal the closed form, the volume a step
ledgers equals what ``comm_model`` derives from the row, and placement
never changes the numbers.
"""

import importlib
import inspect
import itertools
import pkgutil
import random
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import repro.analysis
import repro.experiments
import repro.memprof
import repro.offload.engine
import repro.zero.activation
import repro.zero.factory
from repro import GPTConfig, InfinityConfig, ZeROConfig
from repro.analysis.advisor import advise_activation_strategy
from repro.analysis.comm_model import MPCommModel, dp_volume_elements
from repro.analysis.max_model import device_bytes_for
from repro.analysis.memory_model import ActivationModel, model_state_bytes, state_bytes_by_tier
from repro.analysis.perf_model import PerfModel
from repro.analysis.pp_model import gpipe_device_bytes
from repro.experiments.common import virtual_groups
from repro.runtime import virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.zero.config import C3, C4, C5
from repro.zero.factory import ENGINE_BY_STAGE, build_model_and_engine
from repro.zero.placement import MODEL_AXES, STATE_CLASSES, Mesh, Placed, state_placement
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


def _smuggled(stage, **fields):
    """A ``ZeROConfig`` carrying a combination its constructor refuses —
    the only way to bring one to the doors behind the front door."""
    zero = ZeROConfig(stage=stage, memory_defrag=False)
    for name, value in fields.items():
        object.__setattr__(zero, name, value)
    return zero


def test_table_rows_are_cumulative_and_valid_rows_count():
    assert [row.name for row in STATE_CLASSES] == ["optimizer", "grad", "param", "activation"]
    # the three model states shard over DP from a stage on; activations over MP, on request
    assert [row.partitioned_from for row in STATE_CLASSES] == [1, 2, 3, None]
    assert [row.group for row in STATE_CLASSES] == ["dp", "dp", "dp", "mp"]
    assert [row.split for row in STATE_CLASSES] == [MODEL_AXES] * 3 + [("pp",)]
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
    # The memory model reads ``zero.placement``: even a config that got
    # around its own front door cannot tell it the row.
    with pytest.raises(ValueError, match=ONE_RULE):
        device_bytes_for(CFG, _smuggled(stage, infinity=inf), mesh=Mesh(dp=4), batch=1)
    # The engine resolves the placement from the config it is given.
    ctx = virtual_rank_context(4, gpu=GPU)
    model, _ = build_model_and_engine(ctx, CFG, ZeROConfig(), dp_group=ctx.world, meta=True)
    with pytest.raises(ValueError, match=ONE_RULE):
        ENGINE_BY_STAGE[stage](ctx, model, ctx.world, _smuggled(stage, infinity=inf))


@pytest.mark.parametrize("stage", (0, 1, 2, 3))
def test_offloaded_activations_require_pa_by_the_same_rule(stage):
    """The activation row: off-device without Pa is the table's one rule,
    not a check of its own — whichever door it comes through."""
    with pytest.raises(ValueError, match=ONE_RULE):
        state_placement(stage, None, Placed(partitioned=False, tier="host"))
    with pytest.raises(ValueError, match=ONE_RULE):
        ZeROConfig(stage=stage, cpu_offload_activations=True)
    smuggled = _smuggled(stage, cpu_offload_activations=True)
    with pytest.raises(ValueError, match=ONE_RULE):
        device_bytes_for(CFG, smuggled, mesh=Mesh(dp=4), batch=1)
    ctx = virtual_rank_context(4, gpu=GPU)
    with pytest.raises(ValueError, match=ONE_RULE):
        build_model_and_engine(ctx, CFG, smuggled, dp_group=ctx.world, meta=True)
    # Pa itself is valid at every stage; without an MP group to partition
    # over, the factory says so in its own words.
    pa = ZeROConfig(stage=stage, partition_activations=True, cpu_offload_activations=True)
    assert pa.placement["activation"] == Placed(partitioned=True, tier="host")
    with pytest.raises(ValueError, match="MP group"):
        build_model_and_engine(ctx, CFG, pa, dp_group=ctx.world, meta=True)


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
    want = state_bytes_by_tier(psi, Mesh(dp=4), state_placement(stage, inf))
    assert pools["host"] == want["host"]
    assert pools["nvme"] == want["nvme"]
    assert all_device["host"] == all_device["nvme"] == 0
    # every byte that left the device landed on exactly one other pool
    assert all_device["device"] - pools["device"] == pools["host"] + pools["nvme"]
    assert all_device["device"] - pools["device"] == (
        model_state_bytes(psi, Mesh(dp=4), stage) - want["device"]
    )


TIER_COPIES = ("h2d", "d2h", "nvme-in", "nvme-out")
BATCH, SEQ = 2, 16


def _meta_step_ledger(zero, *, n_gpus=4, mp=1):
    """The ledger of one meta training step on a virtual rank 0."""
    ctx = virtual_rank_context(n_gpus, gpu=GPU)
    dp_group, mp_group = virtual_groups(ctx, n_gpus, mp)
    _, engine = build_model_and_engine(
        ctx, ALIGNED_CFG, zero, dp_group=dp_group,
        mp_group=mp_group if mp > 1 else None, meta=True,
    )
    ids = Tensor.meta((BATCH, SEQ), np.int64, device=ctx.device)
    targets = Tensor.meta((BATCH, SEQ), np.int64, device=ctx.device)
    ctx.ledger.clear()
    engine.train_step(ids, targets)
    return ctx.ledger, engine.layout.numel


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_step_volume_is_what_the_rows_derive(row):
    """Section 7 by rule: what a step's collectives move, in units of Psi,
    is ``dp_volume_elements`` of *this row's* placement — and each term of
    the derivation is the collective the engine issues for it."""
    stage, combo = row
    zero = ZeROConfig(stage=stage, memory_defrag=False, infinity=_infinity(combo))
    ledger, psi = _meta_step_ledger(zero)
    by_op = {op: nbytes / (2 * psi) for op, nbytes in ledger.by_op().items()}  # fp16
    collectives = sum(v for op, v in by_op.items() if op not in TIER_COPIES)
    placement = zero.placement
    assert collectives == dp_volume_elements(1.0, placement)
    assert placement["optimizer"].partitioned and by_op["reduce"] == 1.0  # to owners
    if placement["param"].partitioned:  # per-unit gathers, forward + backward
        assert by_op["broadcast"] == 2.0 and "all_gather" not in by_op
    else:  # one boundary all-gather of the updated parameters
        assert by_op["all_gather"] == 1.0 and "broadcast" not in by_op


@pytest.mark.parametrize("mp", (2, 4))
@pytest.mark.parametrize(
    "zero", (C3, C4, C5), ids=("Pa off", "Pa", "Pa+cpu")
)
def test_activation_traffic_is_what_the_activation_row_derives(zero, mp):
    """Section 8 by rule: Pa's gather and Pa+cpu's PCIe copies per block
    are ``MPCommModel``'s readings of the activation row."""
    ledger, _ = _meta_step_ledger(replace(zero, memory_defrag=False), n_gpus=2 * mp, mp=mp)
    by_phase = ledger.by_phase()
    model = MPCommModel(batch=BATCH, seq_len=SEQ, hidden=ALIGNED_CFG.hidden)
    blocks, fp16 = ALIGNED_CFG.n_layers, 2
    assert by_phase.get("activation-gather", 0) == (
        blocks * fp16 * model.gather_elements_per_block(zero.placement)
    )
    assert by_phase.get("activation-offload", 0) + by_phase.get("activation-fetch", 0) == (
        blocks * fp16 * model.pcie_elements_per_block(zero.placement, Mesh(mp=mp))
    )


RETIRED_KEYWORDS = {
    "partition_activations", "cpu_offload", "cpu_offload_activations",
    "offload_optimizer", "offload_gradients", "page_params", "zero_stage",
}


def _walk(*packages):
    modules = list(packages)
    for package in packages:
        modules += [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(package.__path__, package.__name__ + ".")
        ]
    return modules


def _signatures(modules):
    """``(qualified name, Signature)`` of every function and method the
    modules define (a dataclass's generated ``__init__`` included)."""
    for module in modules:
        for owner in vars(module).values():
            if getattr(owner, "__module__", None) != module.__name__:
                continue
            members = vars(owner).values() if inspect.isclass(owner) else (owner,)
            for fn in filter(inspect.isfunction, members):
                yield f"{module.__name__}.{fn.__qualname__}", inspect.signature(fn)


def test_no_closed_form_factory_or_store_takes_a_placement_boolean():
    """Everything behind the front door (``ZeROConfig``) takes the resolved
    placement, or the config that resolves to it — never the booleans."""
    modules = [repro.zero.factory, repro.zero.activation]
    modules += _walk(repro.analysis, repro.experiments, repro.memprof)
    hits = [
        f"{where}({name})"
        for where, signature in _signatures(modules)
        for name in signature.parameters
        if name in RETIRED_KEYWORDS
    ]
    assert hits == []


DEGREE_KEYWORDS = {"nd", "mp", "mp_degree", "dp_degree", "n_stages", "n_gpus"}


def test_no_closed_form_takes_a_parallel_degree():
    """Every closed form in ``repro.analysis`` takes a ``Mesh``: a parallel
    degree divides a placement row by its mesh axes, never by a number
    passed alongside."""
    hits = [
        f"{where}({name})"
        for where, signature in _signatures(_walk(repro.analysis))
        for name in signature.parameters
        if name in DEGREE_KEYWORDS
    ]
    assert hits == []


@pytest.mark.parametrize(
    "enter, message",
    [
        (lambda: device_bytes_for(CFG, C3, mesh=Mesh(dp=8, mp=0), batch=4), "mesh axis mp"),
        (lambda: device_bytes_for(CFG, C3, mesh=Mesh(dp=8, mp=-2), batch=4), "mesh axis mp"),
        (lambda: gpipe_device_bytes(
            1e9, ActivationModel(hidden=64, n_layers=2, seq_len=16, batch=1),
            mesh=Mesh(pp=0), n_microbatches=4,
        ), "mesh axis pp"),
        (lambda: PerfModel().estimate(CFG, C3, mesh=Mesh.of_world(8, mp=0), batch=4),
         "mesh axis mp"),
        (lambda: advise_activation_strategy(CFG, mesh=Mesh.of_world(8, mp=0)), "mesh axis mp"),
        (lambda: Mesh.of_world(8, mp=3), "not divisible by mp 3"),
    ],
    ids=("device_bytes_for mp=0", "device_bytes_for mp=-2", "gpipe pp=0",
         "estimate mp=0", "advisor mp=0", "of_world 8/3"),
)
def test_a_degree_below_one_fails_at_the_door(enter, message):
    with pytest.raises(ValueError, match=message):
        enter()


@pytest.mark.parametrize("mesh", [Mesh(2, 2, 2), Mesh(3, 2, 1), Mesh(1, 2, 3), Mesh(4, 1, 2)])
def test_each_axis_groups_partition_the_world(mesh):
    """Every axis's groups cover each rank exactly once, and a rank's
    three groups meet only in that rank; a pipeline group lists the
    stages in order, stage outermost."""
    world = set(range(mesh.world))
    for axis in ("dp", "mp", "pp"):
        groups = {tuple(getattr(mesh, f"{axis}_group")(r)) for r in world}
        assert sorted(r for g in groups for r in g) == sorted(world), axis
        assert all(len(g) == getattr(mesh, axis) for g in groups), axis
    for rank in world:
        dp, mp, pp = (set(getattr(mesh, f"{a}_group")(rank)) for a in ("dp", "mp", "pp"))
        assert dp & mp == dp & pp == mp & pp == {rank}
        assert list(mesh.pp_group(rank))[rank // (mesh.dp * mesh.mp)] == rank


def test_one_tier_config_and_one_runtime():
    """No signature under ``src/repro`` takes an ``offload=`` keyword or
    names ``OffloadConfig`` — ``InfinityConfig`` is the tier config — and
    what is left of ``OffloadRuntime`` is the four overrides hostbench's
    probe resolves by name (``benchmarks/hostbench/probe.py``)."""
    hits = []
    for where, signature in _signatures(_walk(repro)):
        annotations = [p.annotation for p in signature.parameters.values()]
        annotations.append(signature.return_annotation)
        if "offload" in signature.parameters or any("OffloadConfig" in str(a) for a in annotations):
            hits.append(where)
    assert hits == []
    stub = repro.offload.engine.OffloadRuntime
    assert {name for name in vars(stub) if not name.startswith("__")} == {
        "begin_micro", "queue_grad_d2h", "finish_step", "trace_step",
    }
    assert stub.__mro__[1] is repro.infinity.InfinityEngine


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
