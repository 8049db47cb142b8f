"""Silent-data-corruption defense (detection + recovery substrate).

ZeRO's premise — every rank is the sole owner of a 1/Nd shard of model
state — makes silent data corruption strictly more dangerous than in
replicated DP: there is no clean copy to fall back on, and at the
400-GPU-plus scales the paper targets, bit flips are routine. This
package is the *detection and recovery* side of the SDC story (the
*injection* side lives in ``repro.comm.faults``):

* ``digest``   — content fingerprints for tensors and shards (CRC-32,
  plus a faster weighted-sum hash for the per-boundary guard);
* ``audit``    — ``IntegrityAuditor``: per-boundary shard-digest guard,
  cadence-gated cross-rank audit of replicated state, anomaly sentinels
  (enabled per-engine via ``ZeROConfig(audit_cadence=N)``);
* ``sentinel`` — rolling-median loss / grad-norm spike windows;
* ``ring``     — ``VerifiedCheckpointRing``: last-K checksummed-and-
  verified checkpoints, the supervisor's rollback targets;
* ``errors``   — ``CorruptionDetectedError``, which the ``Supervisor``
  maps to rollback (and quarantine on recurrence).

Everything here is strictly opt-in: with ``audit_cadence=0`` the
engines allocate nothing and behave byte-identically to builds that
predate this package.
"""

from repro.integrity.audit import IntegrityAuditor
from repro.integrity.digest import (
    digest_array,
    digest_scalars,
    fast_digest_array,
)
from repro.integrity.errors import CorruptionDetectedError
from repro.integrity.ring import VerifiedCheckpointRing
from repro.integrity.sentinel import SpikeWindow

__all__ = [
    "CorruptionDetectedError",
    "IntegrityAuditor",
    "SpikeWindow",
    "VerifiedCheckpointRing",
    "digest_array",
    "digest_scalars",
    "fast_digest_array",
]
