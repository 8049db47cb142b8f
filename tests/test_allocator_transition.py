"""A re-issued run of allocator events is one ``Device.apply``
(``repro.memsim.caching_allocator.Transition``).

Where nothing subscribes to a device's doors, a block tape makes each run
of allocations and frees between two collectives or gradient handoffs in
one call, and falls back to one door call per event when the cache cannot
serve the run with exact size-class hits. Every stream golden subscribes,
so none of them sees this path; here each job runs twice — once with a
no-op door subscriber on every device, which keeps every run on the doors,
and once with none — and the two must leave every device the same at every
step boundary: its ``snapshot()``, the cache's counters, both peaks, and
what no snapshot shows but a later best fit reads (each class's stack in
order, the live blocks in insertion order with their tags).
"""

import pytest

from repro.experiments.common import meta_engine
from repro.memsim.device import Device
from repro.memsim.errors import OutOfMemoryError
from repro.nn.transformer import GPTConfig
from repro.parallel.engine import BaseEngine
from repro.runtime import virtual_rank_context
from repro.utils.units import GB
from repro.zero.config import C4
from tests import test_block_tape as block_tape
from tests import test_tape_lifetime as lifetime


class _Silent:
    """Stands in for a device stream: subscribes to nothing."""

    events, digest = 0, ""

    def __init__(self, monkeypatch, index: int = 0):
        pass


class _NoOp:
    """A door subscriber that does nothing but be there."""

    def _alloc(self, extent, size, tag):
        pass

    def _free(self, extent, size):
        pass


def _state(device: Device) -> dict:
    cache = device.cache
    return {
        "snapshot": device.snapshot(),
        "stats": cache.stats(),
        "peaks": (device.max_allocated_bytes, device.max_reserved_bytes),
        "stacks": [(size, [e.handle for e in stack]) for size, stack in cache._classes.items()],
        "sizes": list(cache._sizes),
        "live": [(h, extent.offset, cache._tags[h]) for h, extent in cache._live.items()],
    }


def observed(monkeypatch, subscribed: bool) -> tuple[dict, list[int]]:
    """Under ``monkeypatch``: every device built gets a ``_NoOp`` if
    ``subscribed``; every ``train_step`` notes its rank's device state as it
    returns. Returns the per-rank states and ``[applied, declined]``
    ``Device.apply`` calls."""
    states: dict[int, list] = {}
    applies = [0, 0]
    init, apply, step = Device.__init__, Device.apply, BaseEngine.train_step

    def watched_init(device, *args, **kwargs):
        init(device, *args, **kwargs)
        if subscribed:
            device.subscribe(_NoOp())

    def counted_apply(device, *args):
        made = apply(device, *args)
        applies[not made] += 1
        return made

    def noted_step(engine, *batch):
        result = step(engine, *batch)
        states.setdefault(engine.ctx.rank, []).append(_state(engine.ctx.device))
        return result

    monkeypatch.setattr(Device, "__init__", watched_init)
    monkeypatch.setattr(Device, "apply", counted_apply)
    monkeypatch.setattr(BaseEngine, "train_step", noted_step)
    return states, applies


def both_ways(job) -> list:
    """``job(monkeypatch)`` subscribed, then unsubscribed: per way, what it
    returned, the step states and the ``Device.apply`` counts."""
    ways = []
    for subscribed in (True, False):
        with pytest.MonkeyPatch.context() as monkeypatch:
            states, applies = observed(monkeypatch, subscribed)
            ways.append((job(monkeypatch), states, applies))
    return ways


@pytest.mark.parametrize("name", sorted(lifetime.JOBS))
def test_tape_lifetime_jobs_leave_the_same_devices_unsubscribed(name):
    def job(monkeypatch):
        monkeypatch.setattr(lifetime, "DeviceStream", _Silent)
        return lifetime.JOBS[name](monkeypatch)

    (got, states, applies), (quiet_got, quiet_states, quiet_applies) = both_ways(job)
    assert applies[0] == 0  # a subscriber keeps every run on the doors
    assert quiet_applies[0] > 0
    assert quiet_got == got
    assert quiet_states == states


def test_a_fig6_config_leaves_the_same_device_unsubscribed():
    """Figure 6's C4 point (128 GPUs, MP 16, batch 16, h 8192, MD on) at
    four layers, three steps on one virtual rank."""
    def job(monkeypatch):
        ctx = virtual_rank_context(128)
        engine, ids, targets = meta_engine(
            ctx, GPTConfig(n_layers=4, hidden=8192, n_heads=64), C4,
            mp=16, batch=16, md_region_bytes=int(2 * GB),
        )
        for _ in range(3):
            engine.train_step(ids, targets)
        device = ctx.device
        return device.max_allocated_bytes, device.max_reserved_bytes, device.allocated_bytes

    (result, states, applies), (quiet_result, quiet_states, quiet_applies) = both_ways(job)
    assert applies[0] == 0 and quiet_applies[0] > 0
    assert quiet_result == result
    assert quiet_states == states


def test_an_oom_is_the_same_unsubscribed():
    """``test_block_tape``'s out-of-memory device: the same exception, with
    the same message, at the same step, from the same allocator state."""
    def job(monkeypatch):
        seen = {}

        def observe(ctx, engine):
            seen["ctx"] = ctx

        with pytest.raises(OutOfMemoryError) as info:
            block_tape.virtual_job(C4, gpu=block_tape.OOM_GPU, observe=observe)
        return type(info.value), str(info.value), _state(seen["ctx"].device)

    (oom, states, _), (quiet_oom, quiet_states, quiet_applies) = both_ways(job)
    assert quiet_applies[0] > 0
    assert quiet_oom == oom
    assert quiet_states == states  # the steps before it


class _FlushAt:
    """Empties the device's cache when a parameter's gradient is handed
    over at one step: between two runs of a re-issued block, so the next
    run finds every class empty and goes through the doors."""

    def __init__(self, engine, step: int):
        self.engine, self.step, self.flushed = engine, step, 0

    def _accumulating(self, param, g):
        if self.engine.step_count == self.step and not self.flushed:
            self.flushed = param.device.empty_cache()

    def _accumulated(self, param):
        pass


def test_a_flush_between_runs_is_the_same_unsubscribed():
    def job(monkeypatch):
        seen = {}

        def observe(ctx, engine):
            param = next(p for p in engine.model.parameters() if p.name.startswith("gpt2.h3."))
            seen["flush"] = _FlushAt(engine, step=1)
            param.subscribe(seen["flush"])

        ctx = block_tape.virtual_job(C4, steps=3, observe=observe)
        assert seen["flush"].flushed > 0
        return _state(ctx.device)

    (end, states, _), (quiet_end, quiet_states, quiet_applies) = both_ways(job)
    assert quiet_applies[0] > 0 and quiet_applies[1] > 0
    assert quiet_end == end
    assert quiet_states == states
