"""The stream recorders the golden tests share.

Two streams pin what a simulated job does, byte for byte, whatever path
the host takes to do it:

* a pool's allocator stream — ``"+size,tag;"`` per alloc and
  ``"-size,tag;"`` per free (``"-size;"`` on a ``HostMemory``, which keeps
  no tags) — recorded by patching the pool *class*, so every observer and
  every path into the pool runs underneath the recorder;
* every rank's ledger — ``"op,bytes,group,phase,peer;"`` per event and
  ``"|"`` after each rank.

Both are sha256 digests plus an event count.
"""

from __future__ import annotations

import hashlib

from repro.memsim.device import Device, HostMemory


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


class DeviceStream(_Stream):
    """The stream of the ``Device`` numbered ``index`` (rank 0's by default)
    while ``monkeypatch`` holds ``Device.alloc`` / ``Device.free``."""

    def __init__(self, monkeypatch, index: int = 0):
        super().__init__()
        alloc, free = Device.alloc, Device.free

        def recording_alloc(device, size, tag=""):
            if device.index == index:
                self._note(f"+{size},{tag};")
            return alloc(device, size, tag)

        def recording_free(device, extent):
            if device.index == index:
                self._note(f"-{extent.size},{device.tag_of(extent)};")
            return free(device, extent)

        monkeypatch.setattr(Device, "alloc", recording_alloc)
        monkeypatch.setattr(Device, "free", recording_free)


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
