"""Module / Parameter / Cache: the manual-backprop NN framework core.

There is no autograd tape. Every module implements ``forward`` returning
``(output, cache)`` and ``backward`` taking ``(cache, dout)`` and returning
``din`` while accumulating parameter gradients. This mirrors how the real
systems' memory behaviour arises: the *cache* is exactly the activation
memory held between forward and backward, so freeing caches reproduces the
lifetimes ZeRO-R reasons about (Sections 4.2 and 6).

Ownership rules (enforced by tests):
* forward's returned output is owned by the caller;
* tensors a module creates during forward live in its cache (``own``);
* inputs are cached by reference (``ref``) — the caller keeps them alive;
* ``Cache.free()`` releases owned tensors, recursively through child caches.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.memprof.provenance import category as memprof_category
from repro.memsim.device import Device
from repro.tensor.tensor import Tensor


@dataclass
class ExecutionContext:
    """Per-forward-pass context: RNG for dropout/init replay, flags."""

    rng: np.random.Generator | None = None
    training: bool = True


class Parameter:
    """A learnable tensor plus its (lazily created) gradient.

    ``data`` is in the model's compute dtype (fp16 under mixed precision);
    gradients are accumulated in fp32 and stored back in the gradient dtype
    (fp16, giving the paper's 2-Psi gradient footprint).
    """

    def __init__(self, name: str, data: Tensor, grad_dtype=np.float16):
        self.name = name
        self.data = data
        self.grad: Tensor | None = None
        self.grad_dtype = np.dtype(grad_dtype)
        # Called with this Parameter the first time a gradient lands during
        # a backward pass — how DDP/ZeRO engines overlap bucketed gradient
        # reduction with backward computation.
        self.grad_ready_hook = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def device(self) -> Device | None:
        return self.data.device

    def accumulate_grad(self, g: Tensor) -> None:
        """Add ``g`` into the gradient (fp32 accumulation), consuming ``g``."""
        if g.shape != self.shape:
            raise ValueError(
                f"grad shape {g.shape} != parameter {self.name} shape {self.shape}"
            )
        if self.grad is None:
            if g.dtype == self.grad_dtype:
                self.grad = g
            else:
                data = None
                if not g.is_meta:
                    with np.errstate(over="ignore"):  # fp16 saturates to inf, as hardware does
                        data = g.data.astype(self.grad_dtype)
                with memprof_category("grad_fp16", site=f"{self.name}.grad"):
                    self.grad = Tensor(
                        g.shape, self.grad_dtype, data=data, device=g.device,
                        tag=f"{self.name}.grad",
                    )
                g.free()
            # The retained tensor changes role here (backward temporary ->
            # parameter gradient); tell the observatory, if one is attached.
            if self.grad.device is not None and self.grad.extent is not None:
                prof = self.grad.device.profiler
                if prof is not None:
                    prof.recategorize(
                        self.grad.extent, "grad_fp16", site=f"{self.name}.grad"
                    )
            if self.grad_ready_hook is not None:
                self.grad_ready_hook(self)
            return
        if not self.grad.is_meta and not g.is_meta:
            with np.errstate(over="ignore", invalid="ignore"):  # saturate, as above
                acc = self.grad.data.astype(np.float32) + g.data.astype(np.float32)
                self.grad.data = acc.astype(self.grad_dtype)
        g.free()

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.free_if_alive()
            self.grad = None

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.shape}, dtype={self.data.dtype})"


@dataclass
class Cache:
    """Per-forward-call storage for backward, with explicit ownership."""

    slots: dict[str, Any] = field(default_factory=dict)
    _owned: list[Tensor] = field(default_factory=list)
    children: dict[str, "Cache"] = field(default_factory=dict)

    def own(self, **tensors: Tensor) -> None:
        for key, t in tensors.items():
            self.slots[key] = t
            if isinstance(t, Tensor):
                self._owned.append(t)

    def own_list(self, key: str, tensors: list[Tensor]) -> None:
        self.slots[key] = tensors
        self._owned.extend(t for t in tensors if isinstance(t, Tensor))

    def ref(self, **values: Any) -> None:
        self.slots.update(values)

    def child(self, key: str, cache: "Cache") -> None:
        self.children[key] = cache

    def __getitem__(self, key: str) -> Any:
        return self.slots[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.slots.get(key, default)

    def free(self) -> None:
        """Free all owned tensors (idempotent) and child caches."""
        for t in self._owned:
            t.free_if_alive()
        self._owned.clear()
        for c in self.children.values():
            c.free()
        self.children.clear()
        self.slots.clear()


class Module:
    """Base class: parameter registration and deterministic iteration order.

    The tree is walked once: every module keeps the flattened parameter
    list of its subtree from the first time it is asked (a step asks the
    root for ``zero_grad`` and stage 3 asks every unit four times), and a
    registration anywhere below drops the lists of all its ancestors.
    """

    def __init__(self, name: str):
        self.name = name
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, Module] = {}
        self._flat: list[Parameter] | None = None
        # Weak, so a tree stays free of reference cycles.
        self._parents: list[weakref.ref[Module]] = []

    def register_parameter(self, param: Parameter) -> Parameter:
        key = param.name
        if key in self._parameters:
            raise ValueError(f"duplicate parameter {key!r} in module {self.name!r}")
        self._parameters[key] = param
        self._drop_flat()
        return param

    def register_module(self, module: "Module") -> "Module":
        if module.name in self._modules:
            raise ValueError(f"duplicate submodule {module.name!r} in {self.name!r}")
        self._modules[module.name] = module
        module._parents.append(weakref.ref(self))
        self._drop_flat()
        return module

    def _drop_flat(self) -> None:
        """A module holding a list implies its whole subtree does (that is
        how ``_flat_parameters`` fills them), so the walk up can stop at
        the first ancestor that holds none."""
        if self._flat is not None:
            self._flat = None
            for ref in self._parents:
                parent = ref()
                if parent is not None:
                    parent._drop_flat()

    def _flat_parameters(self) -> list[Parameter]:
        flat = self._flat
        if flat is None:
            flat = list(self._parameters.values())
            for module in self._modules.values():
                flat.extend(module._flat_parameters())
            self._flat = flat
        return flat

    def parameters(self) -> list[Parameter]:
        return list(self._flat_parameters())

    def named_parameters(self) -> Iterator[Parameter]:
        """Depth-first, registration order — identical on every rank."""
        return iter(self._flat_parameters())

    def modules(self) -> Iterator["Module"]:
        yield self
        for m in self._modules.values():
            yield from m.modules()

    def num_parameters(self) -> int:
        return sum(p.size for p in self._flat_parameters())

    def zero_grad(self) -> None:
        for p in self._flat_parameters():
            p.zero_grad()

    def free_parameters(self) -> None:
        """Release parameter (and grad) device memory — used by teardown."""
        for p in self._flat_parameters():
            p.data.free_if_alive()
            if p.grad is not None:
                p.grad.free_if_alive()
                p.grad = None

    # Subclasses implement:
    def forward(self, x: Tensor, ctx: ExecutionContext) -> tuple[Tensor, Cache]:
        raise NotImplementedError

    def backward(self, cache: Cache, dout: Tensor) -> Tensor:
        raise NotImplementedError
