"""The stream recorders the golden tests share.

Two streams pin what a simulated job does, byte for byte, whatever path
the host takes to do it:

* a pool's allocator stream — ``"+size,tag;"`` per alloc and
  ``"-size,tag;"`` per free (``"-size;"`` on a ``HostMemory``, which keeps
  no tags). A ``Device``'s is heard through its doors, by a subscriber
  each watched device gets as it is built: a subscriber makes a block
  tape re-issue event by event, so the stream holds every event, and
  ``Device.apply`` (a run of events in one call) is never taken unheard.
  A ``HostMemory``'s is recorded by patching the pool *class*;
* every rank's ledger — ``"op,bytes,group,phase,peer;"`` per event and
  ``"|"`` after each rank.

Both are sha256 digests plus an event count.
"""

from __future__ import annotations

import hashlib

from repro.memsim.device import Device, HostMemory
from repro.memsim.errors import OutOfMemoryError


class _Stream:
    def __init__(self):
        self._sha = hashlib.sha256()
        self.events = 0

    def _note(self, event: str) -> None:
        self._sha.update(event.encode())
        self.events += 1

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()


def watch_devices(monkeypatch, index: int, make_subscriber) -> None:
    """Subscribe ``make_subscriber(device)`` to the doors of every
    ``Device`` numbered ``index`` built while ``monkeypatch`` holds
    ``Device.__init__``."""
    init = Device.__init__

    def watched_init(device, *args, **kwargs):
        init(device, *args, **kwargs)
        if device.index == index:
            device.subscribe(make_subscriber(device))

    monkeypatch.setattr(Device, "__init__", watched_init)


class _DeviceNotes:
    """A door subscriber noting one device's events into a stream."""

    def __init__(self, stream: _Stream, device: Device):
        self.stream = stream
        self.device = device

    def _alloc(self, extent, size: int, tag: str) -> None:
        self.stream._note(f"+{size},{tag};")

    def _freeing(self, extent) -> None:
        self.stream._note(f"-{extent.size},{self.device.tag_of(extent)};")

    def _free(self, extent, size: int) -> None:
        pass  # noted at ``_freeing``, while the pool still knows the tag


class DeviceStream(_Stream):
    """The stream of every ``Device`` numbered ``index`` (rank 0's by
    default) built while ``monkeypatch`` holds ``Device.__init__``.

    A door tells only what succeeded, and a stream also holds the request
    an out-of-memory job ends on (as it was asked, ``"+size,tag;"``), so
    ``Device.alloc`` is wrapped to note a request that raises
    ``OutOfMemoryError``; it notes nothing else."""

    def __init__(self, monkeypatch, index: int = 0):
        super().__init__()
        watch_devices(monkeypatch, index, lambda device: _DeviceNotes(self, device))
        alloc = Device.alloc

        def noting_refusal(device, size, tag=""):
            try:
                return alloc(device, size, tag)
            except OutOfMemoryError:
                if device.index == index:
                    self._note(f"+{size},{tag};")
                raise

        monkeypatch.setattr(Device, "alloc", noting_refusal)


class HostStream(_Stream):
    """The stream of every ``HostMemory`` pool named ``name``."""

    def __init__(self, monkeypatch, name: str = "host"):
        super().__init__()
        alloc, free = HostMemory.alloc, HostMemory.free

        def recording_alloc(pool, size, tag=""):
            if pool.name == name:
                self._note(f"+{size},{tag};")
            return alloc(pool, size, tag)

        def recording_free(pool, handle):
            if pool.name == name:
                self._note(f"-{pool._live.get(handle)};")
            return free(pool, handle)

        monkeypatch.setattr(HostMemory, "alloc", recording_alloc)
        monkeypatch.setattr(HostMemory, "free", recording_free)


def ledger_digest(ledgers) -> str:
    """Every rank's ledger, in rank order."""
    sha = hashlib.sha256()
    for ledger in ledgers:
        for e in ledger.events:
            sha.update(f"{e.op},{e.message_bytes},{e.group_ranks},{e.phase},{e.peer};".encode())
        sha.update(b"|")
    return sha.hexdigest()
