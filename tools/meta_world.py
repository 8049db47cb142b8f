"""Time one steady step of a 400-rank stage-3 meta world, the paper's cluster.

Every rank is a thread of one meta ``Cluster`` (ZeRO stage 3 over the
world group, no data). After the warm-up steps, each timed step starts
with all ranks released together from a barrier and ends when all of
them are back at it, as hostbench's ``meta_w64_s3`` does at 64 ranks;
rank 0 also times its own ``train_step``. Run by hand (it is not a
test)::

    PYTHONPATH=src python tools/meta_world.py [--world 400] [--steps 10]

It prints the median world step, rank 0's median own step, and the
whole run's wall time (every rank's engine, the warm-up, the timed steps).
"""

from __future__ import annotations

import argparse
import statistics
import threading
import time

import numpy as np

from repro import Cluster, GPTConfig, ZeROConfig
from repro.tensor.tensor import Tensor
from repro.zero.factory import build_model_and_engine


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--world", type=int, default=400)
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--hidden", type=int, default=1024)
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--seq", type=int, default=256)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument("--steps", type=int, default=10)
    args = parser.parse_args()

    model = GPTConfig(n_layers=args.layers, hidden=args.hidden, n_heads=16, max_seq_len=args.seq)
    zero = ZeROConfig(stage=3, memory_defrag=False)
    cluster = Cluster(args.world, timeout_s=600.0)
    gate = threading.Barrier(args.world)
    world_ms: list[float] = []
    own_ms: list[float] = []

    def fn(ctx):
        _, engine = build_model_and_engine(
            ctx, model, zero, dp_group=ctx.world, dtype=np.float32, seed=0, meta=True,
        )
        ids = Tensor.meta((args.batch, args.seq), np.int64, device=ctx.device)
        tgt = Tensor.meta((args.batch, args.seq), np.int64, device=ctx.device)
        for _ in range(args.warmup):
            gate.wait()
            engine.train_step(ids, tgt)
        lead = ctx.rank == 0
        for _ in range(args.steps):
            gate.wait()
            t0 = time.perf_counter()
            engine.train_step(ids, tgt)
            if lead:
                own_ms.append((time.perf_counter() - t0) * 1e3)
            gate.wait()
            if lead:
                world_ms.append((time.perf_counter() - t0) * 1e3)

    t0 = time.perf_counter()
    cluster.run(fn)
    total_s = time.perf_counter() - t0
    print(
        f"world {args.world}, stage 3, {args.layers} layers, hidden {args.hidden}: "
        f"world step {statistics.median(world_ms):.1f} ms (median of {args.steps}), "
        f"rank 0's own step {statistics.median(own_ms):.2f} ms, "
        f"run {total_s:.1f} s in all"
    )


if __name__ == "__main__":
    main()
