"""Shared fixtures and helpers for the test suite.

Also home of the deadlock guard: the fabric's whole point is that
failures raise instead of hanging, so a regression that reintroduces a
deadlock must *fail* the suite, not stall it. Every test runs under a
SIGALRM-based timeout (a pytest-timeout analog — that plugin isn't
available offline): generous by default, short for ``faults``-marked
tests, overridable per test with ``@pytest.mark.timeout_guard(seconds)``.
"""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest

from repro.hardware.specs import GPUSpec
from repro.memprof.provenance import profiling_active
from repro.nn.transformer import GPTConfig

# Per-test wall-clock budgets for the deadlock guard (seconds).
GUARD_TIMEOUT_S = 300.0
FAULTS_GUARD_TIMEOUT_S = 90.0


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "faults: fault-injection / elastic-recovery tests (short deadlock-guard "
        "timeout; these tests use short fabric timeouts so failures stay fast)",
    )
    config.addinivalue_line(
        "markers",
        "timeout_guard(seconds): override the per-test deadlock-guard timeout",
    )
    config.addinivalue_line(
        "markers",
        "offload: ZeRO-Offload engine tests (host-resident optimizer, PCIe "
        "stream, delayed parameter update)",
    )
    config.addinivalue_line(
        "markers",
        "telemetry: span tracer / metrics registry / Chrome-trace export tests",
    )
    config.addinivalue_line(
        "markers",
        "sdc: silent-data-corruption defense tests (bit-flip injection, "
        "integrity audits, verified-checkpoint ring, supervisor rollback)",
    )
    config.addinivalue_line(
        "markers",
        "failslow: fail-slow (gray-failure) defense tests (performance-fault "
        "injection, straggler detection, slow-rank eviction)",
    )
    config.addinivalue_line(
        "markers",
        "perfscope: critical-path analytics tests (stall attribution, "
        "what-if probes, perf-regression gate)",
    )
    config.addinivalue_line(
        "markers",
        "redundancy: buddy-shard redundancy tests (replica/EC placement, "
        "fast recovery, ring fallback)",
    )
    config.addinivalue_line(
        "markers",
        "chaos: randomized mixed-fault soak campaigns (kills + gray "
        "failures + SDC + checkpoint rot)",
    )
    config.addinivalue_line(
        "markers",
        "obs: Mission Control tests (run ledger, incident analytics, "
        "goodput/SLO accounting, exporters)",
    )
    config.addinivalue_line(
        "markers",
        "hostbench: benchmark-can-run smoke (one short untraced child per "
        "hostbench workload, checked against BENCHMARK.json)",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    override = item.get_closest_marker("timeout_guard")
    if override is not None:
        seconds = float(override.args[0])
    elif (
        item.get_closest_marker("faults") is not None
        or item.get_closest_marker("failslow") is not None
    ):
        seconds = FAULTS_GUARD_TIMEOUT_S
    else:
        seconds = GUARD_TIMEOUT_S
    # SIGALRM only works on the main thread of a Unix process; elsewhere
    # (or under xdist-style workers) run unguarded rather than break.
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return (yield)

    def _on_alarm(signum, frame):
        pytest.fail(
            f"deadlock guard: test still running after {seconds:.0f}s — "
            "a fabric failure path is hanging instead of raising",
            pytrace=True,
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _no_profiler_left_attached():
    """Fail a test that leaves a ``MemoryProfiler`` attached: it would
    switch memprof's hot paths on for every later test."""
    yield
    assert not profiling_active(), "a MemoryProfiler is still attached after this test"


# A small simulated GPU so tests exercise real capacity limits fast.
TEST_GPU = GPUSpec(name="test-gpu", memory_bytes=2 * 10**9, peak_flops=1e12)

TINY_MODEL = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_model_config() -> GPTConfig:
    return TINY_MODEL


@pytest.fixture
def test_gpu() -> GPUSpec:
    return TEST_GPU
