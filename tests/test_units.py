"""Unit helpers: byte formatting and conversion."""

import pytest

from repro.utils.units import (
    BILLION,
    GB,
    TB,
    TRILLION,
    bytes_to_str,
)


def test_paper_gb_convention_is_decimal():
    # 16 bytes x 7.5B params must read as the paper's "120 GB".
    assert 16 * 7.5 * BILLION / GB == pytest.approx(120.0)


def test_trillion_parameter_adam_footprint():
    # Section 1: a 1T-parameter model with Adam in 16-bit needs ~16 TB.
    assert 16 * TRILLION / TB == pytest.approx(16.0)


@pytest.mark.parametrize(
    "n, expected",
    [
        (120 * GB, "120.00 GB"),
        (16 * TB, "16.00 TB"),
        (1.5e6, "1.50 MB"),
        (512, "512 B"),
    ],
)
def test_bytes_to_str(n, expected):
    assert bytes_to_str(n) == expected
