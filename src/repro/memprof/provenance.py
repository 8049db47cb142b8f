"""Thread-local provenance scopes: who is allocating, and as what.

The observatory attributes every ``Device`` allocation to a ZeRO state
class (the taxonomy below) and an allocation *site* (engine phase from
``repro.utils.phase`` plus the owning module/tensor name). Engines declare
the state class with ``with memprof.category("optimizer_state"): ...``
around the allocating code; the step lifecycle's ``enter_phase`` point
feeds ``set_phase`` so each block also records *when* it was allocated.

Zero-overhead contract: while no profiler is attached, ``category()``
returns a shared no-op context-manager singleton (no object allocated per
call) and ``set_phase`` is a counter check plus return — nothing is ever
recorded, no dicts or scope objects are created, and allocator behaviour
is byte-identical (the profiler only *observes* ``Device.alloc``/``free``;
it never changes what they do).

While profiling, an allocation's provenance is read, not computed: the
profiler takes the innermost scope straight off ``_tls.stack`` and the
phase off ``_tls.phase`` (plain attribute loads on a ``threading.local``
subclass), and an unscoped allocation's class from its own memo of
``classify_tag``.
"""

from __future__ import annotations

import threading

# ZeRO state-class taxonomy (ISSUE/paper Sections 3 & 6): model states
# (fp16 params, fp16 grads, fp32 optimizer state) and residual states
# (activations, activation checkpoints, fused communication buffers,
# short-lived temporaries).
CATEGORIES = (
    "param_fp16",
    "grad_fp16",
    "optimizer_state",
    "activation",
    "activation_ckpt",
    "comm_buffer",
    "temp",
)

_CATEGORY_SET = frozenset(CATEGORIES)

# Number of attached MemoryProfiler instances, process-wide. Plain int
# mutated under the GIL from attach/detach; the hot path only reads it.
_active_profilers = 0


class _Provenance(threading.local):
    """This thread's scope stack and phase, made on the thread's first
    access — so reading them is a plain attribute load, never a call."""

    def __init__(self) -> None:
        self.stack: list[_CategoryScope] = []
        self.phase = ""


_tls = _Provenance()


def profiling_active() -> bool:
    return _active_profilers > 0


def _incr_active(delta: int) -> None:
    """Count a profiler in or out. The first one attached starts its
    thread's phase at ``""``: a phase set under an earlier profiler is
    stale once that profiler has gone."""
    global _active_profilers
    if _active_profilers == 0 and delta > 0:
        _tls.phase = ""
    _active_profilers += delta
    if _active_profilers < 0:  # pragma: no cover - defensive
        _active_profilers = 0


class _CategoryScope(tuple):
    """A ``(category, site)`` pair that pushes itself on the calling
    thread's provenance stack. A tuple, so ``category()`` builds it with
    one C-level ``tuple.__new__`` and no Python ``__init__`` frame."""

    __slots__ = ()

    def __enter__(self) -> "_CategoryScope":
        _tls.stack.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _tls.stack.pop()
        return False


class _NoopScope:
    """Shared do-nothing scope handed out while profiling is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopScope":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopScope()


def category(name: str, site: str = ""):
    """Context manager tagging allocations inside it with a state class.

    ``site`` optionally names the owning module/tensor ("zero3-param-shard",
    "grad-bucket", ...); when omitted the allocation's own tag is used.
    Misspelled categories fail loudly even with profiling off, so the
    disabled path cannot hide a bad taxonomy entry.
    """
    if name not in _CATEGORY_SET:
        raise ValueError(f"unknown memprof category {name!r}; expected one of {CATEGORIES}")
    if _active_profilers == 0:
        return _NOOP
    return _CategoryScope((name, site))


def set_phase(phase: str) -> None:
    """Record the engine phase (forward/backward/reduce/optimizer/...).

    Called from the engines' phase markers; a no-op unless a profiler is
    attached so the disabled path does not even touch thread-local state.
    """
    if _active_profilers == 0:
        return
    _tls.phase = phase


def current_phase() -> str:
    return _tls.phase


# Tag-based fallback classifier: explicit ``category()`` scopes at the
# engine call sites are the source of truth, but allocations made outside
# any scope (user code, tests, ad-hoc tensors) still get a best-effort
# state class from their tag, then from the current phase.
_GRAD_TAGS = ("grad-bucket",)
_CKPT_PREFIXES = ("pa-", "act-ckpt")


def classify_tag(tag: str, phase: str = "") -> str:
    """State class of an unscoped allocation. A pure function of its two
    arguments, which is what lets each profiler memoize it."""
    if tag.endswith(".grad") or tag.endswith("-grad-shard"):
        return "grad_fp16"
    if tag in _GRAD_TAGS or tag.startswith("bucket"):
        return "comm_buffer"
    for prefix in _CKPT_PREFIXES:
        if tag.startswith(prefix):
            return "activation_ckpt"
    if "adam" in tag or tag.startswith("optstate") or tag.endswith(".master"):
        return "optimizer_state"
    if tag.endswith("-param-shard"):
        return "param_fp16"
    if tag in ("cb-fused-buffer", "fused-buffer") or tag.endswith("-scratch"):
        return "temp"
    if phase in ("forward", "backward"):
        return "activation"
    return "temp"
