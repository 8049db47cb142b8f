"""The span recorder and the boundary table of the traced run.

Layers are measured from outside: ``Recorder.install`` replaces each
public function in ``BOUNDARIES`` by a wrapper that records one span per
call (name, layer, rank, step, parent span, ``perf_counter`` start/end,
``thread_time`` start/end), and ``uninstall`` puts the originals back.
Nothing here runs in an untraced run except ``assert_unpatched``.

A span's *self* time is its duration minus the part its child spans
cover, so every traced microsecond belongs to exactly one layer. Spans
are aggregated per thread as they close (a 100B meta step opens ~30k of
them); only rank 0's spans of the first ``keep_steps`` steps are kept
whole, for ``trace_<workload>.json``.

The wrapper's own cost lands in the *parent's* self time (the clock
reads bracket the call, the bookkeeping follows them), so layers that
make many boundary calls — ``zero.engine``, ``nn.*`` — read high by about
``span_cost_us`` per child span. ``trace.overhead_ratio`` says how much.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
from dataclasses import dataclass
from time import perf_counter, thread_time

MARK = "__hostbench_original__"


@dataclass(frozen=True)
class Boundary:
    """One wrapped public name. ``name`` is ``function``, ``Class.method``
    or ``*`` for every public function the module defines."""

    layer: str
    module: str
    name: str


def _methods(layer: str, module: str, cls: str, *methods: str) -> tuple[Boundary, ...]:
    return tuple(Boundary(layer, module, f"{cls}.{m}") for m in methods)


_DRIVER_SURFACE = ("begin_micro", "queue_grad_d2h", "finish_step", "trace_step")

BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("runtime", "repro.runtime", "Cluster.run"),
    # The rendezvous class is private; it is reached through the public
    # ``Fabric.rendezvous_for`` (see ``_owner``).
    Boundary("comm.fabric", "repro.comm.fabric", "Fabric.rendezvous_for().exchange"),
    *_methods(
        "comm.group", "repro.comm.group", "ProcessGroup",
        "all_reduce", "reduce", "reduce_scatter", "all_gather", "broadcast",
        "barrier", "meta_collective",
    ),
    # The one-thread 100B workload talks to a VirtualGroup instead.
    Boundary("comm.group", "repro.comm.virtual", "VirtualGroup.meta_collective"),
    Boundary("comm.ledger", "repro.comm.ledger", "CommLedger.record"),
    Boundary("comm.faults", "repro.comm.ledger", "CommLedger.record_retry"),
    *_methods("memsim", "repro.memsim.device", "Device", "alloc", "free"),
    *_methods("memsim", "repro.memsim.device", "HostMemory", "alloc", "free"),
    Boundary("tensor", "repro.tensor.functional", "*"),
    Boundary("nn.fwd", "repro.nn.transformer", "GPT2Model.forward"),
    Boundary("nn.bwd", "repro.nn.transformer", "GPT2Model.backward"),
    *_methods("nn.loss", "repro.nn.loss", "CausalLMLoss", "forward", "backward"),
    *_methods("nn.loss", "repro.nn.loss", "VocabParallelCausalLMLoss", "forward", "backward"),
    Boundary("optim", "repro.optim.adam", "adam_step_inplace"),
    *_methods("optim", "repro.optim.mixed_precision", "MixedPrecisionAdam", "step", "zero_grad"),
    Boundary("zero.engine", "repro.parallel.engine", "BaseEngine.train_step"),
    # Stage 3 gathers and releases parameters from inside the model's
    # forward/backward through these two callbacks; without them that
    # work would read as nn time.
    *_methods("zero.engine", "repro.zero.stage3", "ZeroStage3Engine", "before_unit", "after_unit"),
    *_methods("infinity", "repro.infinity.engine", "InfinityEngine", *_DRIVER_SURFACE, "note_gather"),
    *_methods("infinity", "repro.offload.engine", "OffloadRuntime", *_DRIVER_SURFACE),
    *_methods(
        "telemetry", "repro.telemetry.spans", "Tracer",
        "begin", "end", "advance", "sample_memory", "instant", "on_comm_event",
    ),
    # MemoryProfiler's allocator callbacks are its only per-event surface.
    *_methods("memprof", "repro.memprof.profiler", "MemoryProfiler", "_alloc", "_free", "note_step"),
    *_methods(
        "integrity", "repro.integrity.audit", "IntegrityAuditor",
        "on_boundary", "after_optimizer", "note_grad_norm",
    ),
    Boundary("redundancy", "repro.redundancy.manager", "RedundancyManager.on_boundary"),
    Boundary("redundancy", "repro.redundancy.store", "BuddyStore.publish"),
    Boundary("redundancy", "repro.redundancy.recovery", "resume_from_buddies"),
    Boundary("obs", "repro.obs.ledger", "RunLedger.record"),
    *_methods("health", "repro.health.monitor", "HealthMonitor", "on_step", "on_comm_event"),
    Boundary("perfscope", "repro.perfscope", "analyze"),
    Boundary("zero.checkpoint_io.save", "repro.zero.checkpoint_io", "save_checkpoint"),
    Boundary("zero.checkpoint_io.load", "repro.zero.checkpoint_io", "load_checkpoint_resharded"),
    Boundary("supervisor", "repro.supervisor", "Supervisor.run"),
    Boundary("data", "repro.data", "SyntheticCorpus.sample_batch"),
)

#: layers that only an opt-in subsystem reaches; a steady-state workload
#: without hooks must record zero spans in each.
HOOK_LAYERS = frozenset(
    {"infinity", "telemetry", "memprof", "integrity", "redundancy", "obs", "health", "perfscope"}
)


def _ledger_bytes(ledger, op, message_bytes, *_args, **_kwargs) -> float:
    return float(message_bytes) if ledger.enabled else 0.0


#: span name -> function of the call's arguments giving an amount to sum
#: beside the call count (payload bytes at the ledger boundary).
MEASURES = {
    "comm.ledger.CommLedger.record": _ledger_bytes,
    "redundancy.store.BuddyStore.publish": lambda store, snap: float(snap.nbytes),
}


def _span_name(boundary: Boundary, attr: str) -> str:
    head = boundary.module.removeprefix("repro.")
    if boundary.name == "*":
        return f"{head}.{attr}"
    return f"{head}.{boundary.name}"


def _owner(boundary: Boundary):
    """The class that defines a ``Class.method`` boundary."""
    module = importlib.import_module(boundary.module)
    cls_name, method = boundary.name.rsplit(".", 1)
    if cls_name == "Fabric.rendezvous_for()":
        cls = type(module.Fabric(1).rendezvous_for((0,)))
    else:
        cls = getattr(module, cls_name)
    for klass in cls.__mro__:
        if method in vars(klass):
            return klass, method
    raise AttributeError(f"{boundary.module}:{boundary.name} does not resolve")


def _function_sites(func, extra_modules) -> list[tuple[object, str]]:
    """Every loaded module attribute that *is* ``func`` — the defining
    module and each ``from x import f`` copy, which is where callers look
    the name up."""
    sites = []
    for mod_name, module in list(sys.modules.items()):
        if module is None:
            continue
        if not (mod_name == "repro" or mod_name.startswith("repro.") or module in extra_modules):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                sites.append((module, attr))
    return sites


def resolve(boundary: Boundary, extra_modules=()) -> list[tuple[str, object, str, object]]:
    """``(span name, owner, attribute, current value)`` per patch site."""
    if "." in boundary.name:
        owner, attr = _owner(boundary)
        return [(_span_name(boundary, attr), owner, attr, vars(owner)[attr])]
    module = importlib.import_module(boundary.module)
    if boundary.name == "*":
        names = [
            n for n, f in vars(module).items()
            if not n.startswith("_") and inspect.isfunction(getattr(f, MARK, f))
            and getattr(f, MARK, f).__module__ == module.__name__
        ]
    else:
        names = [boundary.name]
    out = []
    for name in names:
        func = getattr(module, name)
        for site, attr in _function_sites(func, extra_modules):
            out.append((_span_name(boundary, name), site, attr, func))
    return out


def assert_unpatched(extra_modules=()) -> int:
    """The untraced run's guarantee: every boundary still resolves to the
    original function object. Returns how many sites were checked."""
    checked = 0
    for boundary in BOUNDARIES:
        for name, _owner_obj, _attr, value in resolve(boundary, extra_modules):
            if hasattr(value, MARK):
                raise AssertionError(f"{name} is wrapped in an untraced run")
            checked += 1
    return checked


class _ThreadState:
    __slots__ = ("rank", "active", "keep", "step", "stack", "agg", "spans")

    def __init__(self, rank: int):
        self.rank = rank
        self.active = False
        self.keep = False
        self.step = -1
        self.stack: list[list] = []
        # span name index -> [calls, self wall s, self cpu s, amount]
        self.agg: dict[int, list] = {}
        self.spans: list = []


def _thread_rank() -> int:
    """Rank threads are named ``rank-N`` by ``Cluster.run``; anything
    else (the main thread) is -1 until ``bind_rank`` says otherwise."""
    name = threading.current_thread().name
    if name.startswith("rank-"):
        try:
            return int(name[5:])
        except ValueError:
            return -1
    return -1


class Recorder:
    """Installs the wrappers, collects spans, and sums them per layer."""

    def __init__(self, *, keep_steps: int = 3):
        self.keep_steps = keep_steps
        self.names: list[str] = []
        self.layers: list[str] = []
        self._index: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        #: ``Cluster.run`` wall beyond its slowest rank, summed (seconds),
        #: and the number of runs it was summed over.
        self.cluster_run_overhead_s = 0.0
        self.cluster_runs = 0

    # -- installation ---------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        for boundary in BOUNDARIES:
            for name, owner, attr, original in resolve(boundary, extra_modules):
                if hasattr(original, MARK):
                    raise RuntimeError(f"{name} is already wrapped")
                key = self._index.get(name)
                if key is None:
                    key = self._index[name] = len(self.names)
                    self.names.append(name)
                    self.layers.append(boundary.layer)
                if name == "runtime.Cluster.run":
                    wrapper = self._wrap_cluster_run(original, key)
                else:
                    wrapper = self._wrap(original, key, MEASURES.get(name))
                setattr(wrapper, MARK, original)
                wrapper.__name__ = getattr(original, "__name__", attr)
                wrapper.__doc__ = getattr(original, "__doc__", None)
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-thread control ----------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = _ThreadState(_thread_rank())
            self._tls.st = st
            with self._lock:
                self._states.append(st)
        return st

    def bind_rank(self, rank: int) -> None:
        """Declare the calling thread to be ``rank`` (the one-thread
        virtual-rank workload runs rank 0 on the main thread)."""
        self._state().rank = rank

    def set_step(self, step: int | None) -> None:
        """Start recording the calling thread's spans under ``step``;
        ``None`` stops recording. Call between boundary calls only."""
        st = self._state()
        if st.stack:
            raise RuntimeError("set_step inside an open span")
        st.active = step is not None
        st.step = -1 if step is None else step
        st.keep = st.active and st.rank <= 0 and 0 <= st.step < self.keep_steps

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, key: int, measure):
        state = self._state
        tls = self._tls

        def wrapper(*args, **kwargs):
            st = getattr(tls, "st", None) or state()
            if not st.active:
                return fn(*args, **kwargs)
            stack = st.stack
            frame = [0.0, 0.0, -1]  # child wall, child cpu, own span id
            if st.keep:
                frame[2] = len(st.spans)
                st.spans.append(None)
            stack.append(frame)
            w0 = perf_counter()
            c0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                c1 = thread_time()
                w1 = perf_counter()
                stack.pop()
                wall = w1 - w0
                cpu = c1 - c0
                row = st.agg.get(key)
                if row is None:
                    row = st.agg[key] = [0, 0.0, 0.0, 0.0]
                row[0] += 1
                row[1] += wall - frame[0]
                row[2] += cpu - frame[1]
                if measure is not None:
                    row[3] += measure(*args, **kwargs)
                parent = -1
                if stack:
                    above = stack[-1]
                    above[0] += wall
                    above[1] += cpu
                    parent = above[2]
                if frame[2] >= 0:
                    st.spans[frame[2]] = (key, st.step, parent, w0, w1, c0, c1)

        return wrapper

    def _wrap_cluster_run(self, run, key: int):
        """``Cluster.run`` as a span, plus its launch+join cost: the
        run's wall beyond the slowest rank's own function."""
        span = self._wrap(run, key, None)
        recorder = self

        def wrapper(cluster, fn, *args, **kwargs):
            took = [0.0] * cluster.world_size

            def timed(ctx, *a, **k):
                t0 = perf_counter()
                try:
                    return fn(ctx, *a, **k)
                finally:
                    took[ctx.rank] = perf_counter() - t0

            t0 = perf_counter()
            try:
                return span(cluster, timed, *args, **kwargs)
            finally:
                recorder.cluster_run_overhead_s += perf_counter() - t0 - max(took)
                recorder.cluster_runs += 1

        return wrapper

    # -- results -----------------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: layer, and calls / self wall / self cpu / amount
        summed over all threads (``all_*``) and over rank 0 plus the main
        thread (``r0_*``)."""
        with self._lock:
            states = list(self._states)
        out = {}
        for key, name in enumerate(self.names):
            row = {
                "layer": self.layers[key],
                "all_calls": 0, "all_wall_s": 0.0, "all_cpu_s": 0.0, "all_amount": 0.0,
                "r0_calls": 0, "r0_wall_s": 0.0, "r0_cpu_s": 0.0, "r0_amount": 0.0,
            }
            for st in states:
                if key not in st.agg:
                    continue
                calls, wall, cpu, amount = st.agg[key]
                views = ("all", "r0") if st.rank <= 0 else ("all",)
                for view in views:
                    row[f"{view}_calls"] += calls
                    row[f"{view}_wall_s"] += wall
                    row[f"{view}_cpu_s"] += cpu
                    row[f"{view}_amount"] += amount
            if row["all_calls"]:
                out[name] = row
        return out

    def by_layer(self, by_name: dict[str, dict] | None = None) -> dict[str, dict]:
        """``aggregate`` (or an earlier result of it) summed per layer."""
        layers: dict[str, dict] = {}
        for row in (by_name or self.aggregate()).values():
            acc = layers.setdefault(
                row["layer"], {k: 0 for k in row if k != "layer"}
            )
            for k, v in row.items():
                if k != "layer":
                    acc[k] += v
        return layers

    def rank0_spans(self) -> list[dict]:
        """The kept spans of rank 0 and the main thread, times in
        microseconds from the first kept span's start."""
        with self._lock:
            states = [st for st in self._states if st.spans]
        done = [(st, i, s) for st in states for i, s in enumerate(st.spans) if s is not None]
        if not done:
            return []
        origin = min(s[3] for _, _, s in done)
        out = []
        for tid, st in enumerate(states):
            for i, s in enumerate(st.spans):
                if s is None:
                    continue
                key, step, parent, w0, w1, c0, c1 = s
                out.append({
                    "id": f"{tid}.{i}",
                    "parent": None if parent < 0 else f"{tid}.{parent}",
                    "name": self.names[key],
                    "layer": self.layers[key],
                    "rank": st.rank,
                    "step": step,
                    "t0_us": round((w0 - origin) * 1e6, 3),
                    "t1_us": round((w1 - origin) * 1e6, 3),
                    "cpu_us": round((c1 - c0) * 1e6, 3),
                })
        out.sort(key=lambda d: d["t0_us"])
        return out

    def span_cost_us(self, n: int = 20000) -> float:
        """Wall cost of one wrapped call of an empty function, measured
        on the calling thread between boundary calls."""
        if not self.names:
            return 0.0
        bare = lambda: None  # noqa: E731
        wrapped = self._wrap(bare, 0, None)
        st = self._state()
        saved = (st.active, st.keep, st.agg.pop(0, None))
        st.active, st.keep = True, False
        try:
            t0 = perf_counter()
            for _ in range(n):
                wrapped()
            t1 = perf_counter()
            for _ in range(n):
                bare()
            t2 = perf_counter()
        finally:
            st.active, st.keep = saved[:2]
            st.agg.pop(0, None)
            if saved[2] is not None:
                st.agg[0] = saved[2]
        return ((t1 - t0) - (t2 - t1)) / n * 1e6
