"""Autoregressive generation on the GPT model."""

import numpy as np
import pytest

from repro.nn.generate import generate
from repro.nn.transformer import GPT2Model, GPTConfig

CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=53, max_seq_len=16)


@pytest.fixture(scope="module")
def model():
    return GPT2Model(CFG, dtype=np.float32, rng=np.random.default_rng(0))


def test_shapes_and_vocab(model):
    prompt = np.array([[1, 2, 3], [4, 5, 6]], np.int64)
    out = generate(model, prompt, max_new_tokens=5, temperature=0)
    assert out.shape == (2, 8)
    np.testing.assert_array_equal(out[:, :3], prompt)
    assert out.max() < CFG.vocab_size and out.min() >= 0


def test_greedy_is_deterministic(model):
    prompt = np.array([[7, 8]], np.int64)
    a = generate(model, prompt, max_new_tokens=4, temperature=0)
    b = generate(model, prompt, max_new_tokens=4, temperature=0)
    np.testing.assert_array_equal(a, b)


def test_sampling_reproducible_with_seed(model):
    prompt = np.array([[7, 8]], np.int64)
    a = generate(model, prompt, max_new_tokens=4, temperature=1.0,
                 rng=np.random.default_rng(3))
    b = generate(model, prompt, max_new_tokens=4, temperature=1.0,
                 rng=np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)


def test_context_window_respected(model):
    prompt = np.zeros((1, 16), np.int64)  # already at max_seq_len
    out = generate(model, prompt, max_new_tokens=3, temperature=0)
    assert out.shape == (1, 19)  # slides the window instead of crashing


def test_validation(model):
    with pytest.raises(ValueError):
        generate(model, np.zeros(3, np.int64), max_new_tokens=1)
    with pytest.raises(ValueError):
        generate(model, np.zeros((1, 3), np.int64), max_new_tokens=0)
    with pytest.raises(ValueError):
        generate(model, np.zeros((1, 3), np.int64), max_new_tokens=1, temperature=1.0)


def test_no_memory_leak_on_device():
    from repro.hardware.specs import GPUSpec
    from repro.memsim.device import Device

    d = Device(GPUSpec("t", 10**9, 1e12))
    model = GPT2Model(CFG, dtype=np.float32, rng=np.random.default_rng(0), device=d)
    base = d.allocated_bytes
    generate(model, np.array([[1, 2]], np.int64), max_new_tokens=3, temperature=0)
    assert d.allocated_bytes == base
