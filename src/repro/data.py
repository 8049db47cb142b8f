"""Synthetic language-modeling data (substitute for the paper's web corpus).

The paper trains on real text we do not have; the reproducible claims need
only a stationary token stream with enough structure that the loss falls
as capacity grows. A Zipfian unigram distribution blended with a
first-order Markov chain provides that: frequent tokens, learnable bigram
structure, deterministic per-rank streams.
"""

from __future__ import annotations

import numpy as np

from repro.utils.seeding import rng_for

ZIPF_A = 1.2  # the unigram's Zipf exponent
MARKOV_WEIGHT = 0.5  # share of tokens drawn from the predecessor's successors
MARKOV_FANOUT = 4  # successors each token prefers


class SyntheticCorpus:
    """Zipf + Markov token stream with per-rank deterministic batches."""

    def __init__(self, vocab_size: int, *, seed: int = 1234):
        if vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
        self.vocab_size = vocab_size
        self.seed = seed
        rng = rng_for(seed, "corpus-structure")
        ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
        self.unigram = ranks**-ZIPF_A
        self.unigram /= self.unigram.sum()
        # ``Generator.choice(p=unigram)`` re-validates ``p`` and rebuilds this
        # table on every draw; ``sample_batch`` inverts it directly, which
        # consumes the generator identically.
        self._unigram_cdf = self.unigram.cumsum()
        self._unigram_cdf /= self._unigram_cdf[-1]
        # Each token deterministically prefers a few successor tokens.
        self.successors = rng.integers(0, vocab_size, size=(vocab_size, MARKOV_FANOUT))

    def sample_batch(
        self, batch: int, seq_len: int, *, rank: int, step: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return (token_ids, next-token targets), each (batch, seq_len).

        Streams are keyed by (rank, step) so distinct ranks see distinct
        data while reruns are reproducible.
        """
        rng = rng_for(self.seed, "batch", rank, step)
        tokens = np.empty((batch, seq_len + 1), dtype=np.int64)
        cdf = self._unigram_cdf
        tokens[:, 0] = cdf.searchsorted(rng.random(batch), side="right")
        fanout = self.successors.shape[1]
        for t in range(1, seq_len + 1):
            use_markov = rng.random(batch) < MARKOV_WEIGHT
            succ_pick = self.successors[tokens[:, t - 1], rng.integers(0, fanout, size=batch)]
            fresh = cdf.searchsorted(rng.random(batch), side="right")
            tokens[:, t] = np.where(use_markov, succ_pick, fresh)
        return tokens[:, :-1].copy(), tokens[:, 1:].copy()
