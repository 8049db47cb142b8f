"""Host-resident fp32 Adam: optimizer states that live in DRAM, not HBM.

ZeRO-Offload's key design decision is that the fp32 master parameters,
momentum, and variance (the K = 12 bytes/param of Section 3.1) move to the
CPU along with the Adam step itself, freeing 12 Psi / Nd bytes of device
memory per rank. Placement is nothing but the pool the state is allocated
on: the partitioned engine builds the same ``FlatAdamState`` on a
``HostMemory`` pool instead of the ``Device``, and the update runs through
the *same* ``adam_step_inplace`` arithmetic, which is what makes offloaded
training bitwise identical to the all-device path (the equivalence the
paper's Section 2.2.3 argument demands and tests/test_offload.py checks).
This module keeps what the host placement adds — the cost of the step.

``cpu_adam_seconds`` models the host-side step cost. Adam is memory-bound
on CPU: each element touches ~28 bytes of fp32 state (read master/m/v/
grad, write master/m/v), so throughput is DRAM-bandwidth-limited. The
default 1e9 elements/s corresponds to a vectorized multi-core
implementation sustaining ~28 GB/s — the ballpark ZeRO-Offload reports
for its optimized CPU Adam on a DGX-2 class host.
"""

from __future__ import annotations

# Host Adam throughput model (see module docstring).
CPU_ADAM_ELEMENTS_PER_S = 1.0e9
CPU_ADAM_LATENCY_S = 50e-6  # kernel launch / thread-pool wake per step


def cpu_adam_seconds(
    numel: int, *, elements_per_s: float = CPU_ADAM_ELEMENTS_PER_S
) -> float:
    """Modeled wall time of one CPU Adam step over ``numel`` elements."""
    if numel <= 0:
        return 0.0
    return CPU_ADAM_LATENCY_S + numel / elements_per_s
