"""Memory timeline: allocated/reserved bytes over the course of a step.

Attaching a ``MemoryTimeline`` to a Device records a sample after every
allocation and free (optionally labelled by phase marks the caller drops),
yielding the within-step memory profile — the forward ramp as activations
accumulate, the backward descent as caches free, the optimizer plateau.
This is the simulated counterpart of a torch.profiler memory trace and
powers ``examples/memory_timeline.py``.

The timeline subscribes to the device's ``alloc`` / ``free`` doors
(``repro.utils.doors``); ``detach()`` unsubscribes it, whatever else is
subscribed. ``MemoryTimeline`` is also a context manager — ``with``
scoping guarantees the timeline detaches even when the step raises::

    with MemoryTimeline(device) as timeline:
        engine.train_step(batch)
    print(timeline.ascii_plot())
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memsim.device import Device
from repro.utils.phase import normalize_phase


@dataclass(frozen=True)
class MemorySample:
    index: int  # event sequence number
    allocated: int
    reserved: int
    delta: int  # +size for alloc, -size for free
    tag: str
    phase: str


class MemoryTimeline:
    """Samples the device on every allocator event."""

    def __init__(self, device: Device):
        self.device = device
        self.samples: list[MemorySample] = []
        self.phase = ""
        self._tag = ""  # the tag of the free under way
        device.subscribe(self)

    def __enter__(self) -> "MemoryTimeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    # -- the device's doors -------------------------------------------------------

    def _alloc(self, extent, size: int, tag: str) -> None:
        self._sample(+extent.size, tag)

    def _freeing(self, extent) -> None:
        self._tag = self.device.tag_of(extent)  # the pool forgets it on free

    def _free(self, extent, size: int) -> None:
        self._sample(-size, self._tag)

    def _sample(self, delta: int, tag: str) -> None:
        self.samples.append(MemorySample(
            index=len(self.samples),
            allocated=self.device.allocated_bytes,
            reserved=self.device.reserved_bytes,
            delta=delta,
            tag=tag,
            phase=self.phase,
        ))

    # -- caller API ---------------------------------------------------------------

    def mark(self, phase: str) -> None:
        """Label subsequent samples (e.g. 'forward', 'backward', 'optimizer')."""
        self.phase = phase

    def detach(self) -> None:
        self.device.unsubscribe(self)

    # -- analysis ------------------------------------------------------------------

    def peak_allocated(self) -> int:
        return max((s.allocated for s in self.samples), default=0)

    def phase_peaks(self) -> dict[str, int]:
        """Peak allocated bytes per phase label; samples taken before any
        ``mark()`` report under ``"(unlabelled)"`` (the ascii_plot
        convention)."""
        peaks: dict[str, int] = {}
        for s in self.samples:
            phase = normalize_phase(s.phase)
            peaks[phase] = max(peaks.get(phase, 0), s.allocated)
        return peaks

    def largest_allocations(self, n: int = 5) -> list[MemorySample]:
        allocs = [s for s in self.samples if s.delta > 0]
        return sorted(allocs, key=lambda s: -s.delta)[:n]

    def ascii_plot(self, width: int = 72, height: int = 10) -> str:
        """Downsampled allocated-bytes curve with phase boundary markers."""
        if not self.samples:
            return "(no samples)"
        values = [s.allocated for s in self.samples]
        peak = max(values) or 1
        n = len(values)
        cols = []
        for c in range(width):
            lo = c * n // width
            hi = max(lo + 1, (c + 1) * n // width)
            cols.append(max(values[lo:hi]))
        grid = []
        for row in range(height, 0, -1):
            threshold = peak * row / height
            grid.append(
                "".join("#" if v >= threshold else " " for v in cols)
            )
        # Phase boundary ruler.
        ruler = [" "] * width
        last_phase = None
        for i, s in enumerate(self.samples):
            if s.phase != last_phase:
                pos = min(width - 1, i * width // n)
                ruler[pos] = "|"
                last_phase = s.phase
        from repro.utils.units import bytes_to_str

        lines = [f"peak {bytes_to_str(peak)}"]
        lines += ["  " + row for row in grid]
        lines.append("  " + "".join(ruler))
        phases = []
        seen = set()
        for s in self.samples:
            if s.phase not in seen:
                seen.add(s.phase)
                phases.append(normalize_phase(s.phase))
        lines.append("  phases: " + " | ".join(phases))
        return "\n".join(lines)
