"""Shared utilities: units, seeding, table rendering."""

from repro.utils.units import (
    BILLION,
    GB,
    GIB,
    MB,
    MILLION,
    PFLOP,
    TB,
    TFLOP,
    TRILLION,
    bytes_to_str,
)
from repro.utils.seeding import derive_seed, rng_for
from repro.utils.tables import format_table

__all__ = [
    "BILLION",
    "GB",
    "GIB",
    "MB",
    "MILLION",
    "PFLOP",
    "TB",
    "TFLOP",
    "TRILLION",
    "bytes_to_str",
    "derive_seed",
    "rng_for",
    "format_table",
]
