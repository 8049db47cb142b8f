"""Restart-event kinds: the supervisor's recovery-path vocabulary.

One failure-and-relaunch cycle is classified by how the supervisor
recovered, and that classification is consumed in several places — the
supervisor's own telemetry instants/counters, the health layer's
recovery verification, and a pile of tests asserting which path a fault
took. With six kinds the bare string literals became easy to typo
silently (a test comparing against ``"fast-recover"`` would just never
match), so the canonical names live here and everyone imports them.

The decision tree (see ``docs/ARCHITECTURE.md`` section 15):

- ``FAILURE`` — a rank crashed (``RankKilledError`` / fabric abort) and
  no buddy redundancy was available: elastic shrink, resume from the
  checkpoint ring (roll back to the last durable save).
- ``ROLLBACK`` — corruption detected, nobody died: same-world relaunch
  from the newest *verified* checkpoint.
- ``QUARANTINE`` — corruption detected on a repeat-offender rank:
  presumed bad hardware, elastic shrink by one.
- ``SLOW_EVICT`` — a confirmed fail-slow rank is removed; results were
  bitwise-correct all along, so the relaunch resumes from the latest
  durable checkpoint with nothing rolled back.
- ``FAST_RECOVERY`` — buddy redundancy (``repro.redundancy``) held a
  current-step copy of every lost shard: the relaunch resumes at the
  fault step with **zero lost steps**, no checkpoint read.
- ``RING_FALLBACK`` — redundancy was enabled but could not serve the
  fault (double fault: a buddy died too, or a replica failed digest
  verification), so the supervisor fell back to the checkpoint ring.
"""

from __future__ import annotations


class RestartKind:
    """Canonical ``RestartEvent.kind`` values (plain-string constants, so
    events keep comparing and serializing as the strings they always
    were)."""

    FAILURE = "failure"
    ROLLBACK = "rollback"
    QUARANTINE = "quarantine"
    SLOW_EVICT = "slow-evict"
    FAST_RECOVERY = "fast-recovery"
    RING_FALLBACK = "ring-fallback"


#: every valid ``RestartEvent.kind`` — ``RestartEvent`` validates against
#: this, so a typo'd kind fails at construction instead of silently
#: never matching anywhere.
ALL_KINDS = frozenset({
    RestartKind.FAILURE,
    RestartKind.ROLLBACK,
    RestartKind.QUARANTINE,
    RestartKind.SLOW_EVICT,
    RestartKind.FAST_RECOVERY,
    RestartKind.RING_FALLBACK,
})

#: kinds that shrink the world by removing specific ranks (vs. a
#: same-world rollback relaunch).
SHRINKING_KINDS = frozenset({
    RestartKind.FAILURE,
    RestartKind.QUARANTINE,
    RestartKind.SLOW_EVICT,
    RestartKind.FAST_RECOVERY,   # shrinks when the fault was a kill
    RestartKind.RING_FALLBACK,   # likewise
})


def instant_name(kind: str) -> str:
    """Telemetry instant-event name for one restart kind ("failure" kept
    its historical name ``supervisor-restart``)."""
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown restart kind {kind!r}")
    if kind == RestartKind.FAILURE:
        return "supervisor-restart"
    return f"supervisor-{kind}"


def counter_name(kind: str) -> str:
    """Session-registry counter name for one restart kind."""
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown restart kind {kind!r}")
    return f"supervisor_{kind.replace('-', '_')}s"

