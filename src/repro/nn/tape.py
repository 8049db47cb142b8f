"""Block tapes: a block region's effects on the simulated job, recorded at
the doors they pass through and re-issued without running the block.

Two tapes share the recorder (``_Recorder``) and the re-issue loop
(``_Run.play``):

* ``BlockTape`` — repetition on the meta path: one block's effects, taped
  once per model and direction and re-issued for every identical block at
  every step;
* ``ForwardTape`` — a real checkpointed block's recompute: the forward
  region's device stream and the host arrays its cache held, re-issued
  and reused in place of running the forward a second time.

A meta step of a paper-scale stack runs the same transformer block a
hundred times under different names, and nearly all of its host time is
the Python between the allocator calls. ``GPT2Model``'s two checkpointed
block loops therefore run the first block of each direction (block 0
going forward, block L-1 going backward) of the first step as always
while a recorder tapes what it does to anything outside its own Python
objects, then re-issue that tape, at that step and every later one, for
every block whose ``signature`` matches — the captured block included —
without running the block's Python.

In meta mode a block region has exactly four kinds of effect, and the
tape holds them in order:

* ``device.alloc(size, tag)`` and ``device.free(extent)``;
* an MP collective: ``group.meta_collective(rank, op, nbytes, phase)`` on
  the ``group`` a tensor-parallel layer holds;
* a gradient handed to ``Parameter.accumulate_grad``. What that call does
  itself — the cast, the grad hook, a bucket flush, memprof's
  recategorisation — is not taped: on re-issue it runs live, on the target
  block's own ``Parameter``, through ``Parameter.hand_over``, which takes
  the re-issued extent as it is and re-binds the one meta gradient
  ``Tensor`` the parameter keeps (a ``Tensor`` for the handoff itself is
  built only for a subscriber to the door).

A block contributes two regions per direction — the region that returns
its output (``block.forward``, or recompute + backward) and the
``cache.free()`` that follows the unit listener — and everything between
them (stage-3 gathers and reduces, the activation store) stays live.

Re-issue goes through the same doors: collectives through the target
block's own groups, gradients through its own parameters; tags and phases
take the target block's name prefix. A kept tape holds each run of
allocator events between two collectives or gradient handoffs as one step
with a ``Transition`` (``repro.memsim.caching_allocator``), summarised
once when the tape is kept; a run of one event has none, since one door
call is no dearer. A run is one ``Device.apply`` where the device takes
it: nothing subscribes to its doors, no tag of the target block routes
into the MD region, and the cache serves every allocation with an exact
size-class hit, which makes the one call bitwise the events. Otherwise
that run goes event by event through ``device.alloc`` / ``device.free``,
so every subscriber (``MemoryProfiler``, ``MemoryTimeline``, a capture)
hears every event, and a best-fit choice, split, flush or OOM happens at
the same event from the same allocator state; the next run is asked
again. The region's output comes back as a ``Tensor`` bound to its
re-issued extent, and each taped gradient is handed over on its extent,
so the device stream, the ledger, the peaks and an OOM are what running
the block gives.

The recorder subscribes to those doors (``repro.utils.doors``) only
while capturing, and to a shared group for its own rank only, so the
tensor-life path pays one attribute test per door and no call.

A model keeps one ``BlockTape`` per direction for its whole life, and
each loop calls its ``start()`` once. Three rules govern the kept tape:

* a capture that sees anything else — a free of an extent the region did
  not allocate, a tensor the region allocated left alive, a second device,
  a group used for anything but ``meta_collective`` — leaves its direction
  untaped for the rest of that loop, every block running normally; the
  next loop captures again, so one stray event does not cost the run;
* a loop whose first block does not match the kept tape (the batch shape
  changed) captures that block, and its tape replaces the kept one;
* any other block that does not match runs normally.

Re-issuing a tape at a later step is safe for the reason re-issuing it
for a later block is: a block region's effects are a function of its
``signature`` and its name prefix. What changes between steps and not
between blocks cannot reach a region. A gradient already held (gradient
accumulation) only changes what the handoff does, and that runs live. Optimizer and loss-scaler state sit outside the regions. An
observer attached after the capture sees every re-issued event, since it
subscribes to the doors the re-issue goes through. A fault rule acts in the
collective, which goes through the target block's live group. Blocks keep
no lazy device state, and no region reads the ``ctx`` it is handed (no
block uses its ``rng`` or ``training``). ``tests/test_tape_lifetime.py``
pins accumulation, a late observer and a changed batch shape against runs
that re-issue nothing.

On real data ``GPT2Model``'s checkpointed forward loop captures a
``ForwardTape`` per block, and the backward loop re-issues it when the
recompute would compute, bit for bit, what the forward did: the stashed
input is the very tensor with the very array, every parameter holds the
forward's array or a bitwise-equal one (a stage-3 re-gather; a corrupted
one fails), and the step trains. The recompute's stream — the forward
region's allocations and frees, then its output's free — is one run,
made as above; the cache comes back with the kept arrays bound to the
re-issued extents, and ``block.backward`` runs on it for real. A block
holding an MP group, a region freeing what it did not allocate, or a
cache tensor the region did not allocate keeps no tape, and its
recompute runs the forward.
"""

from __future__ import annotations

from operator import attrgetter
from weakref import WeakKeyDictionary

from repro.memsim.block_allocator import ALIGN_MASK
from repro.memsim.caching_allocator import Transition
from repro.nn.module import Cache
from repro.tensor.tensor import Tensor, op_result

#: A taped event is an allocation's size (a positive int; its tag is in the
#: tape's ``tags``), ``~i`` for the free of the block's ``i``-th allocation,
#: or a tuple for the rare kinds: ``(_COLLECTIVE, holder, rank, op, nbytes,
#: phase)`` and ``(_GRAD, parameter, allocation, shape, dtype, tag)``. Ints
#: keep the recorder from building a tracked object per event. A kept tape
#: replaces each run of ints between two tuples with one
#: ``(_ALLOCS, transition, ints, first allocation)`` step.
_COLLECTIVE, _GRAD, _ALLOCS = 0, 1, 2


def signature(block, inputs: list[Tensor]) -> tuple:
    """What a block region's effects depend on besides its name: the module
    class, its parameters' shape, dtype and device (or None) in order, and
    the inputs' shape, dtype and device."""
    return (
        type(block),
        [(p.data.shape, p.data.dtype, p.data.device) for p in block._flat_parameters()],
        [(t.shape, t.dtype, t.device) for t in inputs],
    )


def _steps(regions) -> list[list]:
    """Each region's events, every run of allocator events between two
    tuples replaced by one ``_ALLOCS`` step carrying its ``Transition``;
    ``regions`` holds ``(events, index of the first allocation)``."""
    sizes = [
        (e + ALIGN_MASK) & ~ALIGN_MASK
        for events, _ in regions for e in events if e.__class__ is int and e > 0
    ]
    kept = []
    for events, n in regions:
        steps, run = [], []
        for e in [*events, None]:
            if e.__class__ is int:
                run.append(e)
                continue
            if len(run) > 1:
                transition = Transition(run, n, sizes)
                steps.append((_ALLOCS, transition, run, n))
                n += transition.n_allocs
            elif run:  # one event is one door call either way: no transition
                steps.append((_ALLOCS, None, run, n))
                n += run[0] > 0
            run = []
            if e is not None:
                steps.append(e)
        kept.append(steps)
    return kept


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
    """One direction of a model's block loop, kept for the model's life.

    Each loop calls ``start()`` once, then ``run(block, region, *args)``
    per block, which stands for ``region(*args)`` and must return
    ``(output, cache)``. The loop's first block re-issues the kept tape if
    its signature matches and otherwise is captured, its tape replacing the
    kept one; every later block re-issues the tape if its signature
    matches and otherwise just runs the region. The cache ``run`` returns
    has the one method the loop calls, ``free()`` — the block's second
    region.
    """

    def __init__(self):
        #: the kept tape; None before a clean capture; False while a capture
        #: runs and, if it is refused, for the rest of that loop
        self._tape: _Tape | bool | None = None
        self._first = False  # the next block is its loop's first

    def start(self) -> None:
        """Begin a loop: a capture refused in the last one is retried."""
        if self._tape is False:
            self._tape = None
        self._first = True

    def run(self, block, region, *args):
        inputs = [a for a in args if isinstance(a, Tensor)]
        tape = self._tape
        if self._first:
            self._first = False
            if tape is None or signature(block, inputs) != tape.signature:
                return self._capture(block, region, args, inputs)
        elif not tape or signature(block, inputs) != tape.signature:
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
        params = block._flat_parameters()
        rec = _Recorder(devices.pop(), block, paths, params, self, signature(block, inputs))
        with rec:
            out, cache = region(*args)
        if not rec.first_region_done(out, cache):
            return out, cache
        return out, rec


class _Recorder:
    """A subscriber to the doors of the first block's regions while they run.

    The device's ``alloc`` / ``free`` are watched in both regions; the
    ``params``' ``accumulate_grad`` and, for this rank, the layers' groups
    in the first only — the second is a cache's ``free()``, which can only
    free. Between the regions the recorder stands in for the block's cache:
    its ``free()`` runs the second region and, if both were clean, completes
    ``owner``'s tape. A ``ForwardTape`` uses the first region alone."""

    def __init__(self, device, block, paths: list[str], params, owner: BlockTape | None = None,
                 sig: tuple | None = None):
        self.owner = owner
        self.device = device
        self.block = block
        self.params = {p: i for i, p in enumerate(params)}
        self.paths = paths
        #: group -> (the first layer holding it, by its index in ``paths``; the rank)
        self.groups: dict = {}
        for i, path in enumerate(paths):
            layer = attrgetter(path)(block)
            self.groups.setdefault(layer.group, (i, layer.rank))
        self.signature = sig
        #: extent -> index among the block's allocations, while a region owns it
        self.live: dict = {}
        self.tags: list[str] = []  # per allocation, in order
        self.n_allocs = 0
        self.events: list = []
        self.paused = 0  # inside accumulate_grad: its own effects are not taped
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

    def __enter__(self) -> "_Recorder":
        self.device.subscribe(self)
        if self.output is None:  # the first region
            for p in self.params:
                p.subscribe(self)
            for group, (_, rank) in self.groups.items():
                group.subscribe(self, rank)
        return self

    def __exit__(self, *exc) -> None:
        self.device.unsubscribe(self)
        if self.output is None:
            for p in self.params:
                p.unsubscribe(self)
            for group, (_, rank) in self.groups.items():
                group.unsubscribe(self, rank)

    # -- the doors ------------------------------------------------------------

    def _alloc(self, extent, size, tag: str) -> None:
        if self.paused:
            return
        if size.__class__ is int and size > 0:
            self.live[extent] = self.n_allocs
            self.n_allocs += 1
            self.tags.append(tag)
            self.events.append(size)
        else:
            self.foreign = True  # a size the tape cannot hold as an event

    def _free(self, extent, size: int) -> None:
        index = self.live.pop(extent, None)
        if self.paused:
            self.foreign |= index is not None  # a grad hook freed the region's tensor
        elif index is None:
            self.foreign = True  # the region freed what it did not allocate
        else:
            self.events.append(~index)

    def _accumulating(self, param, g: Tensor) -> None:
        if not self.paused:
            at = self.live.pop(g.extent, None)
            if at is None or g.device is not self.device:
                self.foreign = True
            else:
                self.events.append((_GRAD, self.params[param], at, g.shape, g.dtype, g.tag))
        self.paused += 1

    def _accumulated(self, param) -> None:
        self.paused -= 1

    def _collective(self, group, rank: int, op: str, nbytes, phase: str, meta: bool) -> None:
        if not meta:
            self.foreign = True  # any other use of the group is not taped
        elif not self.paused:
            self.events.append((_COLLECTIVE, self.groups[group][0], rank, op, nbytes, phase))


class _Tape:
    """A captured block's two regions, ready to re-issue."""

    def __init__(self, rec: _Recorder):
        self.signature = rec.signature
        self.output = rec.output
        self.regions = _steps(rec.regions)
        self.tags = rec.tags
        self._groups = [attrgetter(path + ".group") for path in rec.paths]
        # Every tag and phase, with what follows the block's name prefix
        # (None for one without it, which every block keeps as it is).
        prefix = rec.block.name + "."
        cut = len(prefix)
        names = {self.output[5]}.union(rec.tags)
        for events, _ in rec.regions:
            names.update(e[5] for e in events if e.__class__ is tuple)
        self._names = [(n, n[cut:] if n[:cut] == prefix else None) for n in names]
        #: block name -> its tags and phases (taped -> the block's) and its
        #: per-allocation tags, made at the block's first re-issue
        self._renamed: dict[str, tuple[dict, list]] = {}

    def reissue(self, block, ref: Tensor):
        renamed = self._renamed.get(block.name)
        if renamed is None:
            prefix = block.name + "."
            names = {n: n if rest is None else prefix + rest for n, rest in self._names}
            renamed = self._renamed[block.name] = (names, [names[t] for t in self.tags])
        groups = [group_of(block) for group_of in self._groups]
        run = _Run(self, block._flat_parameters(), groups, *renamed, ref)
        run.play(self.regions[0])
        return run.bound(self.output), run


class _Run:
    """One block's re-issue; its ``free()`` is the second region. ``names``
    maps each taped tag and phase to the target block's (None: as taped),
    and ``tags`` holds the target block's tag per allocation."""

    def __init__(self, tape: _Tape | ForwardTape, params, groups, names: dict[str, str] | None,
                 tags: list[str], ref: Tensor):
        self._tape = tape
        self._params = params
        self._groups = groups
        self._names = names
        self._ref = ref
        self._tags = tags
        self._extents: list = [None] * len(tags)

    def bound(self, event: tuple) -> Tensor:
        """The tensor a taped output names, bound to its re-issued
        extent."""
        _, _, at, shape, dtype, tag = event
        t = op_result(self._ref, None, shape, dtype, self._names[tag], alloc=False)
        t.extent = self._extents[at]
        return t

    def play(self, steps: list) -> None:
        """Re-issue a region's ``steps``. A run of allocator events is one
        ``Device.apply`` if it has a transition and the device takes it,
        and otherwise goes event by event through ``alloc`` / ``free``."""
        device = self._ref.device
        alloc, free = device.alloc, device.free
        tags, extents = self._tags, self._extents
        for step in steps:
            kind = step[0]
            if kind == _ALLOCS:
                _, transition, events, n = step
                if transition is not None and device.apply(transition, extents, tags):
                    continue
                for e in events:
                    if e > 0:
                        extents[n] = alloc(e, tags[n])
                        n += 1
                    else:
                        free(extents[~e])
            elif kind == _COLLECTIVE:
                _, holder, rank, op, nbytes, phase = step
                self._groups[holder].meta_collective(rank, op, nbytes, self._names[phase])
            else:
                _, i, at, _, dtype, tag = step
                self._params[i].hand_over(extents[at], dtype, self._names[tag], self._ref)

    def free(self) -> None:
        self.play(self._tape.regions[1])


# -- real mode: a checkpointed block's recompute --------------------------------


class ForwardTape:
    """A real block's forward region, kept for the block's checkpoint
    recompute.

    ``capture`` runs ``block.forward(x, ctx)`` under a ``_Recorder`` and
    keeps the region's device stream with the free of its output appended
    — the recompute's ``y.free()`` — and the block's cache tree as plain
    data (``_plan``), holding the host arrays of the tensors alive in it.
    ``recompute_backward`` re-issues that stream and binds the arrays to
    the re-issued extents in place of running the forward again, then runs
    ``block.backward`` on the cache it rebuilds; ``matches`` says whether
    the recompute would compute what the forward did."""

    def __init__(self, rec: _Recorder, plan: tuple, x: Tensor, params: list):
        self.tags = rec.tags
        events = rec.regions[0][0] + [~rec.output[2]]
        # A block's forward stream is the same step after step: its steps
        # (and their transitions) are made once and kept with the block.
        kept = _RECOMPUTES.get(rec.block)
        if kept is None or kept[0] is not rec.device or kept[1] != events:
            kept = _RECOMPUTES[rec.block] = (
                rec.device, events, _steps([(events, 0)])[0]
            )
        self.steps = kept[2]
        self.nodes, self.specs, self.allocated = plan
        self.x = x
        self.x_data = x.data
        self.params = params

    @classmethod
    def capture(cls, block, x: Tensor, ctx) -> tuple:
        """``block.forward(x, ctx)`` plus its tape: ``(y, cache, tape)``,
        with ``tape`` None if the region is not one to keep — a block
        holding an MP group (its forward communicates), a parameter on
        another device, a free of an extent the region did not allocate,
        or a cache tensor the region did not allocate."""
        device = x.device
        params = block._flat_parameters()
        keep = device is not None and not _holds_groups(block)
        for p in params:
            if p.data.device is not device and p.data.device is not None:
                keep = False
                break
        if not keep:
            return (*block.forward(x, ctx), None)
        rec = _Recorder(device, block, [], ())
        with rec:
            y, cache = block.forward(x, ctx)
        if not rec.first_region_done(y, cache):
            return y, cache, None
        plan = _plan(cache, x, device, rec.live)
        if plan is None:
            return y, cache, None
        return y, cache, cls(rec, plan, x, [p.data.data for p in params])

    def matches(self, block, x: Tensor, ctx) -> bool:
        """True if recomputing ``block`` on ``x`` would compute the kept
        arrays: ``x`` is the very tensor the forward read, with the same
        array; each parameter holds the forward's array, or one bitwise
        equal to it (a stage-3 re-gather); and the step trains."""
        if x is not self.x or x.data is not self.x_data or not ctx.training:
            return False
        for p, kept in zip(block._flat_parameters(), self.params):
            now = p.data.data
            if now is not kept and not (
                now is not None and now.dtype == kept.dtype and now.shape == kept.shape
                and now.tobytes() == kept.tobytes()
            ):
                return False
        return True

    def recompute_backward(self, block, dh: Tensor) -> tuple:
        """The recompute's device stream, then ``block.backward`` on the
        kept arrays: ``(dx, cache)``. This uses the tape up: it drops the
        guard's parameter arrays before the backward runs, and the kept
        arrays live on only in the cache, whose ``free()`` releases them
        where the recomputed ones were released."""
        x, specs = self.x, self.specs
        self.specs = self.params = None
        run = _Run(self, (), (), None, self.tags, x)
        run.play(self.steps)
        tensors = [x]
        tensors += [
            op_result(x, data, shape, dtype, tag, alloc=False)
            for shape, dtype, tag, data in specs
        ]
        extents = run._extents
        for at, index in self.allocated:
            tensors[at].extent = extents[index]
        nodes = self.nodes
        caches = [None] * len(nodes)
        for i in range(len(nodes) - 1, -1, -1):  # children come after their parent
            consts, slots, owned, children = nodes[i]
            cache = caches[i] = Cache(
                dict(consts), [tensors[at] for at in owned],
                {key: caches[at] for key, at in children},
            )
            held = cache.slots
            for key, at in slots:
                held[key] = tensors[at]
        return block.backward(caches[0], dh), caches[0]


#: slot values a cache copy keeps as they are (a shape, a scale)
_PLAIN = frozenset({tuple, int, float, str, bool, type(None)})
#: block -> whether a module in it holds an MP ``group``
_GROUP_HOLDERS: WeakKeyDictionary = WeakKeyDictionary()
#: block -> (device, its forward region's stream, that stream's steps), the
#: last a ``ForwardTape`` of the block kept
_RECOMPUTES: WeakKeyDictionary = WeakKeyDictionary()


def _holds_groups(block) -> bool:
    """Whether ``block`` has tensor-parallel layers, looked up once per
    block: a block's module tree is fixed once it is built."""
    holds = _GROUP_HOLDERS.get(block)
    if holds is None:
        holds = _GROUP_HOLDERS[block] = _holder_paths(block) != []
    return holds


def _plan(cache: Cache, x: Tensor, device, live: dict) -> tuple | None:
    """``cache``'s tree as plain data: ``(nodes, specs, allocated)``.

    ``nodes`` holds each cache, breadth first, as ``(constant slots,
    tensor slots, owned, children)``, a child as its node's position and
    a tensor as its position among ``[x, *bound specs]``; ``specs`` holds
    ``(shape, dtype, tag, array)`` per tensor; ``allocated`` pairs the
    position of each tensor with an extent with the index of the region's
    allocation that made it (a view has none). None if a tensor in the
    tree is not one the region left alive or made as a view, on
    ``device``, or a slot holds anything but a tensor or a plain value.

    A loop, not a recursive closure: a closure that calls itself is a
    reference cycle, and every array the copy holds would wait for the
    collector."""
    seen = {x: 0}
    specs, allocated, nodes = [], [], []
    queue = [cache]
    queued = 1
    for node in queue:  # grows as children are queued
        consts, slots = {}, []
        for key, value in node.slots.items():
            if value.__class__ is Tensor:
                if value in seen:
                    at = seen[value]
                else:
                    if value._freed or value.device is not device:
                        return None
                    at = seen[value] = len(seen)
                    if value.extent is not None:
                        index = live.pop(value.extent, None)
                        if index is None:
                            return None
                        allocated += ((at, index),)
                    specs += ((value.shape, value.dtype, value.tag, value.data),)
                slots += ((key, at),)
            elif value.__class__ in _PLAIN:
                consts[key] = value
            else:
                return None
        try:
            owned = [seen[t] for t in node._owned]
        except KeyError:  # an owned tensor no slot holds
            return None
        children = []
        for key, child in node.children.items():
            children += ((key, queued),)
            queue += (child,)
            queued += 1
        nodes += ((consts, slots, owned, children),)
    return nodes, specs, allocated
