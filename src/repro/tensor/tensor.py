"""Device-accounted tensors with real (numpy) or *meta* (shape-only) storage.

Two execution modes share every code path above this layer:

* **real** — ``data`` is a numpy array; numerics are exact. Used by the
  correctness tests and small-scale examples.
* **meta** — ``data is None``; only shape/dtype exist. Every allocation and
  free still goes through the simulated device allocator and every
  collective still logs its volume, so 100B-parameter configurations run in
  milliseconds while producing exact byte counts (the paper's memory and
  communication measurements need sizes and lifetimes, not values).

Lifetime is explicit: the training engines free activations when their
backward use ends, because the simulated allocator — like CUDA — has no
garbage collector. ``free()`` is strict (double free raises) so lifetime
bugs surface in tests instead of skewing memory measurements.

Two constructors build the same object. ``Tensor(...)`` is the public one
and validates everything it is given. ``op_result`` is the *trusted* one,
for ``repro.tensor.functional`` only: an op has already computed its
result's shape as a tuple of Python ints from validated operands, its
dtype as an ``np.dtype`` instance of the supported set and — in real mode
— an array of exactly that dtype and shape, so a result skips the shape
re-normalisation, the ``DTYPE_SIZES`` lookup (which hashes the dtype) and
the ``np.asarray(data, dtype=)`` cast and shape check; a paper-scale meta
step builds 15 000 of them, a real-data step a few hundred per rank.
Either way the bytes are reserved by ``device.alloc(nbytes, tag)`` and
returned by ``device.free(extent)``, looked up on the pool *instance* at
every call: that pair is what ``MemoryProfiler``, ``MemoryTimeline`` and
hostbench's probe wrap.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.memsim.block_allocator import Extent
from repro.memsim.device import Device, HostMemory

DTYPE_SIZES = {
    np.dtype(np.float16): 2,
    np.dtype(np.float32): 4,
    np.dtype(np.float64): 8,
    np.dtype(np.int32): 4,
    np.dtype(np.int64): 8,
    np.dtype(np.uint8): 1,
}


def supported_dtype(dtype) -> np.dtype:
    """``dtype`` as an ``np.dtype`` instance; raises unless tensors support it."""
    dt = np.dtype(dtype)
    if dt not in DTYPE_SIZES:
        raise ValueError(f"unsupported dtype {dt}")
    return dt


def dtype_size(dtype: np.dtype) -> int:
    dt = np.dtype(dtype)
    try:
        return DTYPE_SIZES[dt]
    except KeyError:
        raise ValueError(f"unsupported dtype {dt}") from None


class Tensor:
    """A shape+dtype value, optionally backed by numpy data and device memory."""

    __slots__ = ("shape", "dtype", "size", "nbytes", "data", "device", "extent", "tag", "_freed")

    def __init__(
        self,
        shape: tuple[int, ...],
        dtype: np.dtype,
        *,
        data: Optional[np.ndarray] = None,
        device: Optional[Device | HostMemory] = None,
        tag: str = "",
        alloc: bool = True,
    ):
        """``device`` is the pool the bytes are accounted on — a ``Device``,
        or a ``HostMemory`` (host DRAM / NVMe) for state parked on a lower
        tier; the two share the ``alloc(size, tag)`` / ``free(handle)``
        surface.

        ``alloc=False`` builds a *view*: it carries ``device`` for
        propagation to downstream results but reserves no memory itself
        (reshape/transpose on a GPU are metadata ops, not copies).

        ``size`` and ``nbytes`` are computed here, once: they are plain
        attributes, and ``shape`` changes only through ``reshaped_inplace``,
        which keeps the element count."""
        shape = tuple(map(int, shape))
        dtype = np.dtype(dtype)
        itemsize = DTYPE_SIZES.get(dtype)
        if itemsize is None:
            raise ValueError(f"unsupported dtype {dtype}")
        if data is not None:
            data = np.asarray(data, dtype=dtype)
            if data.shape != shape:
                raise ValueError(f"data shape {data.shape} != tensor shape {shape}")
        size = 1
        for s in shape:
            size *= s
        self.shape = shape
        self.dtype = dtype
        self.size = size
        self.nbytes = nbytes = size * itemsize
        self.data = data
        self.device = device
        self.tag = tag
        self._freed = False
        self.extent: Optional[Extent | int] = None  # the pool's allocation handle
        if alloc and device is not None and nbytes > 0:
            self.extent = device.alloc(nbytes, tag)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_numpy(cls, array: np.ndarray, *, device: Device | None = None, tag: str = "") -> "Tensor":
        array = np.asarray(array)
        return cls(array.shape, array.dtype, data=array, device=device, tag=tag)

    @classmethod
    def meta(cls, shape: tuple[int, ...], dtype: np.dtype, *, device: Device | None = None, tag: str = "") -> "Tensor":
        return cls(shape, dtype, data=None, device=device, tag=tag)

    @classmethod
    def zeros(cls, shape: tuple[int, ...], dtype: np.dtype, *, device: Device | None = None, tag: str = "") -> "Tensor":
        return cls(shape, dtype, data=np.zeros(shape, dtype=dtype), device=device, tag=tag)

    def like(self, data: Optional[np.ndarray], shape: tuple[int, ...] | None = None, dtype: np.dtype | None = None, tag: str | None = None) -> "Tensor":
        """New tensor on this tensor's device; meta iff ``data is None``."""
        if data is not None:
            shape = data.shape
            dtype = data.dtype if dtype is None else dtype
        if shape is None or dtype is None:
            raise ValueError("meta result needs explicit shape and dtype")
        return Tensor(
            shape, dtype, data=data, device=self.device,
            tag=self.tag if tag is None else tag,
        )

    # -- properties ------------------------------------------------------------

    @property
    def is_meta(self) -> bool:
        return self.data is None

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def reshaped_inplace(self, shape: tuple[int, ...]) -> "Tensor":
        """Mutate this tensor's shape in place (same element count).

        Unlike ``functional.reshape`` (which returns a view object), this
        keeps ownership with the same Tensor — the natural way to fix up an
        op output's shape without allocation or ownership transfer.
        """
        shape = tuple(map(int, shape))
        size = 1
        for s in shape:
            size *= s
        if size != self.size:
            raise ValueError(f"cannot reshape {self.shape} ({self.size}) to {shape}")
        if self.data is not None:
            self.data = self.data.reshape(shape)
        self.shape = shape
        return self

    def numpy(self) -> np.ndarray:
        if self.data is None:
            raise ValueError(f"tensor {self.tag!r} is meta; it has no values")
        return self.data

    # -- lifetime ---------------------------------------------------------------

    @property
    def freed(self) -> bool:
        return self._freed

    def free(self) -> None:
        """Release device memory and drop data. Double free raises."""
        if self._freed:
            raise ValueError(f"tensor {self.tag!r} already freed")
        self._freed = True
        if self.extent is not None and self.device is not None:
            self.device.free(self.extent)
            self.extent = None
        self.data = None

    def free_if_alive(self) -> None:
        if not self._freed:
            self.free()

    def __repr__(self) -> str:
        kind = "meta" if self.is_meta else "real"
        return f"Tensor({kind}, shape={self.shape}, dtype={self.dtype}, tag={self.tag!r})"


_new_tensor = object.__new__


def op_result(
    ref: Tensor,
    data: Optional[np.ndarray],
    shape: tuple[int, ...],
    dtype: np.dtype,
    tag: str,
    alloc: bool = True,
) -> Tensor:
    """An op's result on ``ref``'s device — the trusted constructor (module
    docstring). The caller guarantees what ``Tensor.__init__`` would
    otherwise establish: ``shape`` is a tuple of Python ints, ``dtype``
    an ``np.dtype`` instance that ``DTYPE_SIZES`` holds (the set is closed
    under the promotions the ops apply; a dtype that comes from *their*
    caller goes through ``supported_dtype`` first), and ``data``, when
    given, an ``np.ndarray`` of exactly that dtype and shape — nothing
    here casts or checks it."""
    size = 1
    for s in shape:
        size *= s
    t = _new_tensor(Tensor)
    t.shape = shape
    t.dtype = dtype
    t.size = size
    t.nbytes = nbytes = size * dtype.itemsize
    t.data = data
    t.device = device = ref.device
    t.tag = tag
    t._freed = False
    if alloc and device is not None and nbytes > 0:
        t.extent = device.alloc(nbytes, tag)
    else:
        t.extent = None
    return t
