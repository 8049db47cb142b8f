"""Within-step repetition on the meta path: one block's effects, taped once
per step and re-issued for every identical block.

A meta step of a paper-scale stack runs the same transformer block a
hundred times under different names, and nearly all of its host time is
the Python between the allocator calls. ``GPT2Model``'s two checkpointed
block loops therefore run the first block of each direction (block 0
going forward, block L-1 going backward) as always while a recorder tapes
what it does to anything outside its own Python objects, then re-issue
that tape for every later block whose ``signature`` matches, without
running the block's Python.

In meta mode a block region has exactly four kinds of effect, and the
tape holds them in order:

* ``device.alloc(size, tag)`` and ``device.free(extent)``;
* an MP collective: ``group.meta_collective(rank, op, nbytes, phase)`` on
  the ``group`` a tensor-parallel layer holds;
* a gradient handed to ``Parameter.accumulate_grad``. What that call does
  itself — the cast, the grad hook, a bucket flush, memprof's
  recategorisation — is not taped: on re-issue it runs live, on the target
  block's own ``Parameter``, with a real ``Tensor``.

A block contributes two regions per direction — the region that returns
its output (``block.forward``, or recompute + backward) and the
``cache.free()`` that follows the unit listener — and everything between
them (stage-3 gathers and reduces, the activation store) stays live.

Re-issue goes through the same doors: ``device.alloc`` / ``device.free``
looked up on the instance (so ``MemoryProfiler``, ``MemoryTimeline`` and
any class-level probe see every event), collectives through the target
block's own groups, gradients through its own parameters; tags and phases
take the target block's name prefix. The region's output and each taped
gradient come back as ``Tensor``s bound to the re-issued extents, so the
device stream, the ledger, the peaks and an OOM (same exception at the
same allocator state) are what running the block gives.

The recorder attaches on the instances only while capturing, as
``MemoryTimeline`` does, so nothing on the tensor-life path changes. A
direction whose capture sees anything else — a free of an extent the
region did not allocate, a tensor the region allocated left alive, a
second device, a group used for anything but ``meta_collective`` — runs
every block normally for the rest of the step. Nothing crosses steps: a
tape lives as long as one loop.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter

from repro.tensor.tensor import Tensor, op_result

#: A taped event is an allocation's size (a positive int; its tag is in the
#: tape's ``tags``), ``~i`` for the free of the block's ``i``-th allocation,
#: or a tuple for the rare kinds: ``(_COLLECTIVE, holder, rank, op, nbytes,
#: phase)`` and ``(_GRAD, parameter, allocation, shape, dtype, tag)``. Ints
#: keep the recorder from building a tracked object per event.
_COLLECTIVE, _GRAD = 0, 1


def signature(block, inputs: list[Tensor]) -> tuple:
    """What a block region's effects depend on besides its name: the module
    class, its parameters' shape, dtype and device (or None) in order, and
    the inputs' shape, dtype and device."""
    return (
        type(block),
        [(p.data.shape, p.data.dtype, p.data.device) for p in block._flat_parameters()],
        [(t.shape, t.dtype, t.device) for t in inputs],
    )


def _holder_paths(block) -> list[str] | None:
    """The attribute paths (``"attn.qkv"``) of the block's modules that hold
    an MP ``group`` — its tensor-parallel layers — in module order; None if
    a holder is not reachable by the path its name spells."""
    paths = []
    for m in block.modules():
        if getattr(m, "group", None) is not None:
            path = m.name.removeprefix(block.name + ".")
            try:
                if attrgetter(path)(block) is not m:
                    return None
            except AttributeError:
                return None
            paths.append(path)
    return paths


class BlockTape:
    """One direction of one step's block loop.

    ``run(block, region, *args)`` stands for ``region(*args)``, which must
    return ``(output, cache)``: it captures the first block, re-issues the
    tape for blocks with the captured signature, and otherwise just runs
    the region. The cache it returns has the one method the loop calls,
    ``free()`` — the block's second region.
    """

    def __init__(self):
        self._tape: _Tape | bool | None = None  # None: not captured yet; False: off

    def run(self, block, region, *args):
        inputs = [a for a in args if isinstance(a, Tensor)]
        tape = self._tape
        if tape is None:
            return self._capture(block, region, args, inputs)
        if tape is False or signature(block, inputs) != tape.signature:
            return region(*args)
        return tape.reissue(block, inputs[0])

    def _capture(self, block, region, args, inputs):
        self._tape = False  # until the second region completes the tape
        devices = {t.device for t in inputs}
        devices.update(p.data.device for p in block._flat_parameters())
        devices.discard(None)
        paths = _holder_paths(block)
        if len(devices) != 1 or paths is None:
            return region(*args)
        rec = _Recorder(self, devices.pop(), block, paths, signature(block, inputs))
        with rec:
            out, cache = region(*args)
        if not rec.first_region_done(out, cache):
            return out, cache
        return out, rec


class _Recorder:
    """The doors of the first block's regions, watched while they run.

    The device's ``alloc`` / ``free`` are watched in both regions; the
    parameters' ``accumulate_grad`` and the layers' groups in the first
    only — the second is a cache's ``free()``, which can only free.
    Between the regions the recorder stands in for the block's cache: its
    ``free()`` runs the second region and, if both were clean, completes
    the tape."""

    def __init__(self, owner: BlockTape, device, block, paths: list[str], sig: tuple):
        self.owner = owner
        self.device = device
        self.block = block
        self.params = block._flat_parameters()
        self.paths = paths
        self.holders = [attrgetter(path)(block) for path in paths]
        self.signature = sig
        #: extent -> index among the block's allocations, while a region owns it
        self.live: dict = {}
        self.tags: list[str] = []  # per allocation, in order
        self.n_allocs = 0
        self.events: list = []
        self.paused = False  # inside accumulate_grad: its own effects are not taped
        self.foreign = False
        # Set when the first region hands its output over:
        self.output: tuple | None = None  # shaped like a _GRAD event, for _Run.bound
        self.cache = None  # the block's own cache, freed by the second region
        #: per region, (events, index of its first allocation in the block)
        self.regions: tuple | None = None

    def first_region_done(self, out: Tensor, cache) -> bool:
        """Hand ``out`` to the caller; False if the tape cannot be kept."""
        index = self.live.pop(out.extent, None)
        if self.foreign or index is None:
            return False
        self.output = (None, None, index, out.shape, out.dtype, out.tag)
        self.cache = cache
        self.regions = ((self.events, 0), ([], self.n_allocs))
        self.events = self.regions[1][0]
        return True

    def free(self) -> None:
        with self:
            self.cache.free()
        if not self.foreign and not self.live:
            self.owner._tape = _Tape(self)

    # -- the doors ------------------------------------------------------------

    def __enter__(self) -> "_Recorder":
        device = self.device
        # What the instances already override (an observer's wrappers), to
        # put back on exit.
        own = device.__dict__
        self._own = {(device, k): own[k] for k in ("alloc", "free") if k in own}
        alloc, free = device.alloc, device.free
        live, tags, append = self.live, self.tags, self.events.append

        def taped_alloc(size, tag=""):
            extent = alloc(size, tag)
            if not self.paused:
                if size.__class__ is int and size > 0:
                    live[extent] = self.n_allocs
                    self.n_allocs += 1
                    tags.append(tag)
                    append(size)
                else:
                    self.foreign = True  # a size the tape cannot hold as an event
            return extent

        def taped_free(extent):
            free(extent)
            index = live.pop(extent, None)
            if self.paused:
                self.foreign |= index is not None  # a grad hook freed the region's tensor
            elif index is None:
                self.foreign = True  # the region freed what it did not allocate
            else:
                append(~index)

        device.alloc, device.free = taped_alloc, taped_free
        if self.output is None:  # the first region
            for i, p in enumerate(self.params):
                if "accumulate_grad" in p.__dict__:
                    self._own[p, "accumulate_grad"] = p.accumulate_grad
                p.accumulate_grad = partial(self._accumulate, i, p.accumulate_grad)
            for i, m in enumerate(self.holders):
                m.group = _GroupTap(self, i, m.group)
        return self

    def __exit__(self, *exc) -> None:
        del self.device.alloc, self.device.free
        if self.output is None:
            for p in self.params:
                del p.accumulate_grad
            for m in self.holders:
                m.group = m.group._group
        for (owner, attr), value in self._own.items():
            setattr(owner, attr, value)

    def _accumulate(self, index: int, accumulate, g: Tensor) -> None:
        if self.paused:
            return accumulate(g)
        at = self.live.pop(g.extent, None)
        if at is None or g.device is not self.device:
            self.foreign = True
        else:
            self.events.append((_GRAD, index, at, g.shape, g.dtype, g.tag))
        self.paused = True
        try:
            return accumulate(g)
        finally:
            self.paused = False

    def collective(self, index: int, rank: int, op: str, nbytes: int, phase: str) -> None:
        if not self.paused:
            self.events.append((_COLLECTIVE, index, rank, op, nbytes, phase))


class _GroupTap:
    """Stands in for a layer's MP group while its block is captured."""

    def __init__(self, rec: _Recorder, index: int, group):
        self._rec = rec
        self._index = index
        self._group = group

    def meta_collective(self, rank: int, op: str, message_bytes: int, phase: str = "") -> None:
        self._rec.collective(self._index, rank, op, message_bytes, phase)
        return self._group.meta_collective(rank, op, message_bytes, phase)

    def __getattr__(self, attr: str):
        self._rec.foreign = True  # any other use of the group is not taped
        return getattr(self._group, attr)


class _Tape:
    """A captured block's two regions, ready to re-issue."""

    def __init__(self, rec: _Recorder):
        self.signature = rec.signature
        self.output = rec.output
        self.regions = rec.regions
        self.tags = rec.tags
        self._groups = [attrgetter(path + ".group") for path in rec.paths]
        # Every tag and phase, with what follows the block's name prefix
        # (None for one without it, which every block keeps as it is).
        prefix = rec.block.name + "."
        cut = len(prefix)
        names = {self.output[5]}.union(rec.tags)
        for events, _ in self.regions:
            names.update(e[5] for e in events if e.__class__ is tuple)
        self._names = [(n, n[cut:] if n[:cut] == prefix else None) for n in names]

    def reissue(self, block, ref: Tensor):
        prefix = block.name + "."
        names = {n: n if rest is None else prefix + rest for n, rest in self._names}
        groups = [group_of(block) for group_of in self._groups]
        run = _Run(self, block._flat_parameters(), groups, names, ref)
        run.play(*self.regions[0])
        return run.bound(self.output), run


class _Run:
    """One block's re-issue; its ``free()`` is the second region."""

    def __init__(self, tape: _Tape, params, groups, names: dict[str, str], ref: Tensor):
        self._tape = tape
        self._params = params
        self._groups = groups
        self._names = names
        self._ref = ref
        self._tags = [names[t] for t in tape.tags]
        self._extents: list = [None] * len(tape.tags)

    def bound(self, event: tuple) -> Tensor:
        """The tensor a taped output or gradient names, bound to its
        re-issued extent."""
        _, _, at, shape, dtype, tag = event
        t = op_result(self._ref, None, shape, dtype, self._names[tag], alloc=False)
        t.extent = self._extents[at]
        return t

    def play(self, events: list, n: int) -> None:
        """Re-issue ``events``; the region's first allocation is the ``n``-th
        of the block."""
        device = self._ref.device
        alloc, free = device.alloc, device.free
        tags, extents = self._tags, self._extents
        for e in events:
            if e.__class__ is int:
                if e > 0:
                    extents[n] = alloc(e, tags[n])
                    n += 1
                else:
                    free(extents[~e])
            elif e[0] == _COLLECTIVE:
                _, holder, rank, op, nbytes, phase = e
                self._groups[holder].meta_collective(rank, op, nbytes, self._names[phase])
            else:
                self._params[e[1]].accumulate_grad(self.bound(e))

    def free(self) -> None:
        self.play(*self._tape.regions[1])
