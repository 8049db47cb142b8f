"""The step lifecycle: which subsystem acts at which point of a training
step, in what order — one table, walked by both step loops
(``for sub in life.pre_optimizer: sub.pre_optimizer(self)``).

A subscriber takes the engine as an argument, keeps no reference to it, and
reaches its subsystem through it on every call, so a method patched on the
class after assembly (a test spy, hostbench's probe) is the one that runs.
A point nobody subscribed to is an empty tuple. Rules: ARCHITECTURE §5.
"""

from __future__ import annotations

import numpy as np

from repro.memprof.provenance import set_phase as memprof_set_phase

#: point -> the subsystems acting there, in order; keys in the order a loop
#: reaches them (the optimizer points on boundary micro-steps only). Two
#: orders are safety rules: integrity verifies the owned shards *before*
#: the optimizer consumes them, so a scribble is never laundered into a
#: legitimate update; redundancy follows integrity, so a boundary the
#: detectors rejected (they raise) never reaches the buddy store.
ORDER = {
    "step_begin": ("faults",),                      # (engine, boundary)
    "micro_begin": ("tiers", "telemetry"),          # (engine, boundary, forward_s, backward_s)
    "enter_phase": ("telemetry", "memory"),         # (engine, phase); leaves the last one
    "pre_optimizer": ("telemetry", "integrity"),    # (engine)
    "post_optimizer": ("tiers", "telemetry"),       # (engine, result); result.applied known
    "boundary_closed": (                            # (engine, result); gradients released
        "integrity", "memory", "telemetry", "redundancy", "recorder",
    ),
    "step_end": ("telemetry",),                     # (engine); inputs freed
}
POINTS = tuple(ORDER)


class _Tiers:
    """``engine.offload`` (the ``InfinityEngine`` tier runtime): the
    step's transfer timeline and modeled step time."""

    def micro_begin(self, engine, boundary, forward_s, backward_s):
        engine.offload.begin_micro(forward_s, backward_s)

    def post_optimizer(self, engine, result):
        # Host Adam over the partition, that many fp16 bytes shipped back,
        # device-resident gradients in one boundary d2h; an overflow-skip
        # step moves no optimizer bytes.
        shard_bytes = engine.part_numel * np.dtype(engine.model.dtype).itemsize
        streamed = engine.placement["grad"].tier != "device"
        result.step_time_model_s = engine.offload.finish_step(
            adam_numel=engine.part_numel if result.applied else 0,
            param_h2d_bytes=shard_bytes if result.applied else 0,
            boundary_grad_bytes=0 if streamed else shard_bytes,
        ).step_s


class _Telemetry:
    """``engine.tracer``: the ``step`` span and a span per phase. One per
    engine: it keeps the step's start and the modeled seconds a compute phase
    credits when left (perf-fault rules stretch those, never the numerics)."""

    __slots__ = ("t0", "seconds", "phase")

    def micro_begin(self, engine, boundary, forward_s, backward_s):
        tr = engine.tracer
        self.seconds = {"forward": forward_s, "backward": backward_s}
        self.phase = None
        self.t0 = tr.clock_s
        tr.begin("step", **engine._step_labels(boundary))
        tr.sample_memory(engine.ctx.device)

    def enter_phase(self, engine, phase):
        self._leave(engine)
        engine.tracer.begin("grad-reduce" if phase == "reduce" else phase)
        self.phase = phase

    def _leave(self, engine, result=None):
        phase, self.phase = self.phase, None
        if phase is None:
            return
        tr = engine.tracer
        if phase in self.seconds:
            tr.advance(self.seconds[phase])
        if phase != "reduce":
            tr.sample_memory(engine.ctx.device)
        tr.end()

    # Backward is closed before the detectors run (a detection instant lands
    # between spans), optimizer before the buddy refresh opens its own span.
    pre_optimizer = boundary_closed = _leave

    def post_optimizer(self, engine, result):
        if engine.offload is not None:
            engine.offload.trace_step(engine.tracer, self.t0)

    def step_end(self, engine):
        self._leave(engine)
        engine.tracer.end()


class _Memory:
    """``engine.timeline`` and the device's ``MemoryProfiler``. Both attach
    after construction, so this is always subscribed and looks them up here."""

    def enter_phase(self, engine, phase):
        if engine.timeline is not None:
            engine.timeline.mark(phase)
        memprof_set_phase(phase)

    def boundary_closed(self, engine, result):
        # Leak sentinel: steady state returns every category to its baseline here.
        profiler = engine.ctx.device.profiler
        if profiler is not None:
            profiler.note_step()


class _Integrity:
    """``engine.integrity``: shard guard and cadence-gated audit before the
    optimizer; re-fingerprint and sentinels after."""

    def pre_optimizer(self, engine):
        engine.integrity.on_boundary(engine.step_count)

    def boundary_closed(self, engine, result):
        engine.integrity.after_optimizer(engine.step_count, result.applied, result.loss)


class _Redundancy:
    """``engine.redundancy``: the buddy refresh of the owned shards."""

    def boundary_closed(self, engine, result):
        engine.redundancy.on_boundary(result.applied)


class _Recorder:
    """``ctx.recorder``: one ``STEP_COMPLETED`` per rank and boundary."""

    def boundary_closed(self, engine, result):
        engine.ctx.recorder.on_step_completed(
            engine.ctx.rank, engine.step_count, t_s=engine.clock_s, applied=result.applied
        )


MEMORY = _Memory()
_SHARED = {
    "tiers": _Tiers(), "integrity": _Integrity(), "redundancy": _Redundancy(),
    "recorder": _Recorder(), "memory": MEMORY,
}


class Lifecycle:
    """One engine's subscribers, a tuple per point. ``attached`` names what
    it holds beside the fault plan and tracer; ``None`` is not attached.
    The ``faults`` subscriber is ``ctx.faults``, the ``FaultPlan`` itself."""

    __slots__ = (*POINTS, "quiet")

    def __init__(self, engine, **attached):
        attached["memory"] = True
        subs = {name: _SHARED[name] for name, what in attached.items() if what is not None}
        if engine.ctx.faults is not None:
            subs["faults"] = engine.ctx.faults
        if engine.tracer is not None:
            subs["telemetry"] = _Telemetry()
        for point, names in ORDER.items():
            setattr(self, point, tuple(subs[n] for n in names if n in subs))
        #: only the memory subscriber, which acts only once a timeline or
        #: profiler attaches: a step nobody here observes
        self.quiet = subs.keys() == {"memory"}
