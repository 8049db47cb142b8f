"""Byte / FLOP / parameter-count unit helpers.

The paper mixes decimal prefixes for parameter counts ("7.5B parameters",
"1T parameters") with binary-ish gigabytes for memory ("120 GB", "32GB V100").
Inspecting Table 1 shows the paper uses *decimal* GB = 1e9 bytes for memory
arithmetic (16 bytes x 7.5e9 params = 120e9 bytes reported as "120 GB"),
so this module defines GB = 1e9 and exposes explicit GiB where binary units
are genuinely wanted (never for reproducing paper numbers).
"""

from __future__ import annotations

# Parameter-count units (decimal, as in "7.5B parameters").
MILLION = 1_000_000
BILLION = 1_000_000_000
TRILLION = 1_000_000_000_000

# Byte units. Paper arithmetic uses decimal GB (see module docstring).
KB = 1e3
MB = 1e6
GB = 1e9
TB = 1e12

KIB = 1024.0
MIB = 1024.0**2
GIB = 1024.0**3

# FLOP units.
GFLOP = 1e9
TFLOP = 1e12
PFLOP = 1e15


def bytes_to_str(n_bytes: float) -> str:
    """Render a byte count with the largest sensible decimal unit."""
    for unit, suffix in ((TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB")):
        if abs(n_bytes) >= unit:
            return f"{n_bytes / unit:.2f} {suffix}"
    return f"{n_bytes:.0f} B"
