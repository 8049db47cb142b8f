"""What the benchmark runs: the six workloads as three kinds of run.

Each kind has ``setup()`` (everything ``setup_s`` covers after the
imports), ``block(n)`` (``n`` timed steps, or one campaign) and
``sim_metrics()``. A block's result carries the wall and CPU time of
every step and a reading of the calibration kernel taken before each
one, which is what ``workloads.host_metrics`` turns into the host-clock
numbers.

Why a kernel reading per step: the sandbox's cores change speed by
25-40% on a sub-second timescale (another tenant on the same hardware).
A fixed 2-3 ms kernel of the same kind of work — interpreter loop, tiny
numpy calls — slows with them, so a step time divided by the readings
around it is steady where the raw time is not. On a thread cluster all
ranks meet at a harness-owned ``threading.Barrier`` before and after each
step; rank 0 reads the kernel between the two meetings, alone on the
CPU. The barrier is the harness's, not the program's fabric: it records
nothing in the ledger and opens no span.
"""

from __future__ import annotations

import itertools
import resource
import shutil
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
from common import SRC  # noqa: E402

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro import (  # noqa: E402
    Cluster,
    GPTConfig,
    RedundancyConfig,
    RestartKind,
    RestartPolicy,
    RetryPolicy,
    Supervisor,
    ZeROConfig,
)
from repro.analysis.perf_model import transformer_flops_per_replica  # noqa: E402
from repro.analysis.sim_time import LedgerTimeEstimator  # noqa: E402
from repro.chaos import ChaosCampaign, generate_campaign  # noqa: E402
from repro.data import SyntheticCorpus  # noqa: E402
from repro.experiments.common import meta_memory_step, virtual_groups  # noqa: E402
from repro.hardware.specs import GPUSpec  # noqa: E402
from repro.health import HealthConfig, HealthMonitor  # noqa: E402
from repro.infinity import InfinityConfig  # noqa: E402
from repro.memprof import MemoryProfiler  # noqa: E402
from repro.obs import RunLedger  # noqa: E402
from repro.optim.adam import AdamHyperparams  # noqa: E402
from repro.parallel.engine import EngineConfig  # noqa: E402
from repro.redundancy import BuddyStore  # noqa: E402
from repro.redundancy import recovery  # noqa: E402
from repro.runtime import virtual_rank_context  # noqa: E402
from repro.telemetry import TelemetrySession  # noqa: E402
from repro.tensor.tensor import Tensor  # noqa: E402
from repro.utils.units import GB  # noqa: E402
from repro.zero import checkpoint_io  # noqa: E402
from repro.zero.config import C4  # noqa: E402
from repro.zero.factory import build_model_and_engine  # noqa: E402

MB = 1e6
GATE_TIMEOUT_S = 60.0

# ---------------------------------------------------------------------------
# the calibration kernel
# ---------------------------------------------------------------------------

#: kernel time (ms) on this sandbox's cores at full speed. Host-clock
#: numbers are scaled to it; it is a constant of the benchmark.
REF_KERNEL_MS = 2.6

_TILE = np.random.default_rng(0).standard_normal((8, 8)).astype(np.float32)


def kernel() -> tuple[float, float]:
    """(interpreter ms, numpy ms) of one run of the fixed kernel: a
    bytecode loop, then tiny numpy calls where dispatch dominates — the
    two kinds of work the simulator's host time is made of."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i
    t1 = time.perf_counter()
    tile = _TILE
    for _ in range(600):
        b = tile + tile
        b *= tile
    t2 = time.perf_counter()
    return (t1 - t0) * 1e3, (t2 - t1) * 1e3


def steady_kernel() -> tuple[float, float]:
    """The fastest of three readings, for one-off uses (after set-up)."""
    return min((kernel() for _ in range(3)), key=sum)


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """One step workload on a thread cluster: who runs what model how."""

    world: int
    layers: int
    hidden: int
    heads: int
    vocab: int
    batch: int
    seq: int
    stage: int
    meta: bool = False
    warmup: int = 3
    #: timed step after which rank 0 reads ``ru_maxrss`` — a fixed step,
    #: so a faster program (more steps per run, longer ledger) does not
    #: read as a memory regression.
    rss_mark: int = 10

    @property
    def model(self) -> GPTConfig:
        return GPTConfig(
            n_layers=self.layers, hidden=self.hidden, n_heads=self.heads,
            vocab_size=self.vocab, max_seq_len=max(self.seq, 16),
        )

    def shrunk(self) -> "Spec":
        """The selftest's version: same code paths, a fraction of the work."""
        return replace(
            self, world=min(self.world, 4), hidden=min(self.hidden, 64),
            heads=min(self.heads, 4), batch=min(self.batch, 2),
            seq=min(self.seq, 32), warmup=2, rss_mark=2,
        )


SPECS = {
    "fabric_w8_s3": Spec(world=8, layers=2, hidden=64, heads=4, vocab=128,
                         batch=2, seq=32, stage=3),
    "compute_w2_s2": Spec(world=2, layers=2, hidden=128, heads=8, vocab=256,
                          batch=2, seq=64, stage=2, warmup=4, rss_mark=20),
    "meta_w64_s3": Spec(world=64, layers=2, hidden=1024, heads=16, vocab=50257,
                        batch=4, seq=256, stage=3, meta=True, warmup=2, rss_mark=4),
    "hooks_w4_s3": Spec(world=4, layers=2, hidden=64, heads=4, vocab=128,
                        batch=2, seq=32, stage=3, rss_mark=8),
}

META_100B = dict(n_gpus=400, mp=16, batch=32, seq=1024, warmup=3, rss_mark=10)
META_100B_MODEL = GPTConfig(n_layers=125, hidden=8192, n_heads=64)

CHAOS = dict(world=4, total_steps=24, ckpt_every=2, batch=2, seq=16, oracle_checks=2)
CHAOS_MODEL = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CHAOS_GPU = GPUSpec("t", 2 * 10**9, 1e12)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_hit_ratio(device) -> float:
    stats = device.cache.stats()
    lookups = stats.n_cache_hits + stats.n_cache_misses
    return stats.n_cache_hits / lookups if lookups else 0.0


def _sim_metrics(events, topology, gpu, model: GPTConfig, batch: int, seq: int,
                 checkpointing: bool, mp: int, peak_alloc_bytes: int) -> dict:
    """The three simulated-clock numbers of one steady-state step."""
    flops = transformer_flops_per_replica(model, batch, seq, checkpointing=checkpointing) / mp
    est = LedgerTimeEstimator(topology, gpu).estimate(
        list(events), flops_per_gpu=flops, hidden=model.hidden
    )
    return {
        "sim_step_ms": est.total_s * 1e3,
        "sim_peak_alloc_mb": peak_alloc_bytes / MB,
        "comm_mb_per_step": sum(e.nominal_bytes for e in events) / MB,
    }


class CallCounter:
    """Counts function calls (Python and C) on the entering thread and on
    every thread started while it is active — the interpreter work of a
    piece of the program as a number that repeats (to ~0.1%, exactly on
    meta workloads) where its time does not."""

    def __init__(self):
        self.by_thread: dict[int, int] = {}

    def _hook(self, frame, event, arg) -> None:
        if event == "call" or event == "c_call":
            ident = threading.get_ident()  # each thread touches its own key only
            self.by_thread[ident] = self.by_thread.get(ident, 0) + 1

    def __enter__(self) -> "CallCounter":
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    @property
    def total(self) -> int:
        return sum(self.by_thread.values())


class StepClock:
    """Rank 0's per-step record inside one block."""

    def __init__(self):
        self.kernel: list[tuple[float, float]] = []  # one before each step, one after the last
        self.wall_s: list[float] = []   # release of all ranks -> all ranks done
        self.cpu_s: list[float] = []    # process CPU over the same interval
        self.step_ms: list[float] = []  # rank 0's own train_step

    def result(self, n: int) -> dict:
        return {
            "n": n, "ops": n, "wall_s": sum(self.wall_s), "cpu_s": sum(self.cpu_s),
            "step_wall_s": self.wall_s, "step_cpu_s": self.cpu_s,
            "step_ms": self.step_ms, "kernel_ms": self.kernel,
        }


# ---------------------------------------------------------------------------
# step workloads on a thread cluster
# ---------------------------------------------------------------------------

_LEDGER_IDS = itertools.count()


class _Rank:
    """What one rank keeps between blocks."""

    def __init__(self, ctx, model, engine, batches):
        self.ctx = ctx
        self.model = model
        self.engine = engine
        self.batches = batches
        self.losses: list = []
        self.step = 0  # next step index (warm-up included)


class ClusterRun:
    """A ``Spec`` on a ``Cluster``: engines are built once and live across
    blocks; every block is one ``Cluster.run`` of ``n`` steps."""

    def __init__(self, spec: Spec, seed: int, *, stage: int | None = None,
                 world: int | None = None, hooks: bool = False,
                 tmp: Path | None = None, recorder=None, warmup: int | None = None):
        self.spec = spec
        self.seed = seed
        self.stage = spec.stage if stage is None else stage
        self.world = spec.world if world is None else world
        self.hooks = hooks
        self.tmp = tmp
        self.recorder = recorder  # probe.Recorder or None
        self.warmup = spec.warmup if warmup is None else warmup
        self.corpus = None if spec.meta else SyntheticCorpus(spec.vocab, seed=seed)
        self.ranks: list[_Rank | None] = [None] * self.world
        self.gate = threading.Barrier(self.world)
        self.timed_steps = 0
        self.rss_mb: float | None = None
        self.step_event_range = (0, 0)
        self.session = None
        self.run_ledger = None
        self.cluster = None

    # -- configuration ----------------------------------------------------------

    def _zero(self) -> ZeROConfig:
        if self.hooks:
            return ZeROConfig(
                stage=self.stage, memory_defrag=False, audit_cadence=10,
                infinity=InfinityConfig(param_tier="host"),
            )
        return ZeROConfig(stage=self.stage, memory_defrag=False)

    def _cluster_kwargs(self) -> dict:
        """Every opt-in subsystem at once, for the hooks-on blocks."""
        if not self.hooks:
            return {}
        self.session = TelemetrySession(
            perfscope=True, health=HealthMonitor(HealthConfig())
        )
        self.run_ledger = RunLedger(self.tmp / f"run-ledger-{next(_LEDGER_IDS)}.jsonl")
        return dict(
            telemetry=self.session,
            redundancy=BuddyStore(RedundancyConfig()),
            recorder=self.run_ledger,
        )

    # -- set-up -------------------------------------------------------------------

    def setup(self) -> None:
        """Cluster, engines and warm-up steps."""
        self.cluster = Cluster(self.world, timeout_s=120.0, **self._cluster_kwargs())
        if self.run_ledger is not None:
            self.run_ledger.begin_incarnation(self.world, session=self.session)
        self.cluster.run(self._build_and_warm)

    def _build_and_warm(self, ctx) -> None:
        spec = self.spec
        if self.hooks:
            MemoryProfiler(ctx.device)
        model, engine = build_model_and_engine(
            ctx, spec.model, self._zero(), dp_group=ctx.world,
            dtype=np.float32, seed=self.seed, meta=spec.meta,
        )
        if spec.meta:
            ids = Tensor.meta((spec.batch, spec.seq), np.int64, device=ctx.device)
            tgt = Tensor.meta((spec.batch, spec.seq), np.int64, device=ctx.device)
            batches = lambda step: (ids, tgt)  # noqa: E731
        else:
            rank = ctx.rank
            batches = lambda step: self.corpus.sample_batch(  # noqa: E731
                spec.batch, spec.seq, rank=rank, step=step
            )
        me = self.ranks[ctx.rank] = _Rank(ctx, model, engine, batches)
        for _ in range(self.warmup):
            n0 = len(ctx.ledger.events)
            ids, tgt = me.batches(me.step)
            me.losses.append(engine.train_step(ids, tgt).loss)
            me.step += 1
            if ctx.rank == 0:
                self.step_event_range = (n0, len(ctx.ledger.events))

    # -- one block ----------------------------------------------------------------

    def block(self, n: int) -> dict:
        """``n`` timed steps; thread launch and join stay outside every
        number (they are ``runtime.cluster_run_ms`` in the traced run)."""
        clock = StepClock()
        rec = self.recorder
        if rec is not None:
            rec.set_step(self.timed_steps)  # this thread's Cluster.run span
        try:
            self.cluster.run(self._block_fn, n, self.timed_steps, clock)
        finally:
            if rec is not None:
                rec.set_step(None)
        self.timed_steps += n
        return clock.result(n)

    def _block_fn(self, ctx, n: int, first: int, clock: StepClock) -> None:
        me = self.ranks[ctx.rank]
        engine = me.engine
        lead = ctx.rank == 0
        rec = self.recorder
        gate = self.gate
        for k in range(n + 1):
            # Everyone is done with the previous step; rank 0 reads the
            # kernel alone, then everyone starts the next step together.
            gate.wait(GATE_TIMEOUT_S)
            if lead:
                t_done = time.perf_counter()
                cpu_done = time.process_time()
                if k:
                    clock.wall_s.append(t_done - t_go)
                    clock.cpu_s.append(cpu_done - cpu_go)
                    if first + k == self.spec.rss_mark:
                        self.rss_mb = rss_mb()
                clock.kernel.append(kernel())
            if k == n:
                break
            gate.wait(GATE_TIMEOUT_S)
            if lead:
                t_go = time.perf_counter()
                cpu_go = time.process_time()
            if rec is not None:
                rec.set_step(first + k)
            ids, tgt = me.batches(me.step)
            t0 = time.perf_counter()
            loss = engine.train_step(ids, tgt).loss
            t1 = time.perf_counter()
            if rec is not None:
                rec.set_step(None)
            me.losses.append(loss)
            me.step += 1
            if lead:
                clock.step_ms.append((t1 - t0) * 1e3)

    def calls_per_step(self) -> float:
        """Function calls of one more step on all ranks, launch included."""

        def one_step(ctx):
            me = self.ranks[ctx.rank]
            ids, tgt = me.batches(me.step)
            me.losses.append(me.engine.train_step(ids, tgt).loss)
            me.step += 1

        with CallCounter() as calls:
            self.cluster.run(one_step)
        return float(calls.total)

    # -- results ------------------------------------------------------------------

    @property
    def device0(self):
        return self.cluster.devices[0]

    def sim_metrics(self) -> dict:
        lo, hi = self.step_event_range
        return _sim_metrics(
            self.cluster.ledgers[0].events[lo:hi], self.cluster.topology,
            self.device0.spec, self.spec.model, self.spec.batch, self.spec.seq,
            checkpointing=self._zero().checkpoint_activations, mp=1,
            peak_alloc_bytes=self.device0.max_allocated_bytes,
        )

    def volume_ratio(self) -> float:
        """Rank 0's nominal bytes in the steady step over Psi bytes."""
        lo, hi = self.step_event_range
        lead = self.ranks[0]
        psi_bytes = lead.engine.layout.numel * np.dtype(lead.model.dtype).itemsize
        events = self.cluster.ledgers[0].events[lo:hi]
        return sum(e.nominal_bytes for e in events) / psi_bytes

    def losses(self) -> list[list]:
        return [r.losses for r in self.ranks]

    def finish_hooks(self) -> float:
        """Close what a hooks-on run opened; returns the wall seconds
        ``session.perfscope_analysis()`` took (it must succeed)."""
        t0 = time.perf_counter()
        analysis = self.session.perfscope_analysis()
        took = time.perf_counter() - t0
        if not analysis.reports:
            raise AssertionError("perfscope analysed no step")
        self.run_ledger.close()
        return took


# ---------------------------------------------------------------------------
# the one-thread 100B meta workload
# ---------------------------------------------------------------------------


class MetaRankRun:
    """Rank 0 of a 400-GPU (mp 16 x dp 25) 100B job on the main thread."""

    def __init__(self, seed: int, *, recorder=None, shrink: bool = False):
        self.seed = seed
        self.recorder = recorder
        self.cfg = dict(META_100B)
        self.model_cfg = META_100B_MODEL
        if shrink:
            self.cfg.update(n_gpus=16, mp=4, batch=4, seq=128, warmup=1, rss_mark=2)
            self.model_cfg = GPTConfig(n_layers=4, hidden=512, n_heads=8)
        self.timed_steps = 0
        self.rss_mb: float | None = None
        self.per_step_memory: list[tuple[int, int]] = []

    def setup(self) -> None:
        c = self.cfg
        self.ctx = virtual_rank_context(c["n_gpus"])
        dp, mp = virtual_groups(self.ctx, c["n_gpus"], c["mp"])
        self.model, self.engine = build_model_and_engine(
            self.ctx, self.model_cfg, C4, dp_group=dp, mp_group=mp,
            meta=True, md_region_bytes=int(2 * GB), seed=self.seed,
        )
        dev = self.ctx.device
        self.ids = Tensor.meta((c["batch"], c["seq"]), np.int64, device=dev)
        self.tgt = Tensor.meta((c["batch"], c["seq"]), np.int64, device=dev)
        for _ in range(c["warmup"]):
            n0 = len(self.ctx.ledger.events)
            self.engine.train_step(self.ids, self.tgt)
            self.step_event_range = (n0, len(self.ctx.ledger.events))

    def block(self, n: int) -> dict:
        rec = self.recorder
        dev = self.ctx.device
        clock = StepClock()
        for k in range(n):
            clock.kernel.append(kernel())
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            if rec is not None:
                rec.set_step(self.timed_steps + k)
            self.engine.train_step(self.ids, self.tgt)
            if rec is not None:
                rec.set_step(None)
            wall = time.perf_counter() - t0
            clock.wall_s.append(wall)
            clock.cpu_s.append(time.process_time() - cpu0)
            clock.step_ms.append(wall * 1e3)
            self.per_step_memory.append((dev.max_allocated_bytes, dev.allocated_bytes))
            if self.timed_steps + k + 1 == self.cfg["rss_mark"]:
                self.rss_mb = rss_mb()
        clock.kernel.append(kernel())
        self.timed_steps += n
        return clock.result(n)

    @property
    def device0(self):
        return self.ctx.device

    def calls_per_step(self) -> float:
        with CallCounter() as calls:
            self.engine.train_step(self.ids, self.tgt)
        return float(calls.total)

    def sim_metrics(self) -> dict:
        lo, hi = self.step_event_range
        c = self.cfg
        return _sim_metrics(
            self.ctx.ledger.events[lo:hi], self.ctx.topology, self.ctx.device.spec,
            self.model_cfg, c["batch"], c["seq"],
            checkpointing=C4.checkpoint_activations, mp=c["mp"],
            peak_alloc_bytes=self.ctx.device.max_allocated_bytes,
        )

    def verify(self) -> list[str]:
        """Fits; the peak is the same on every timed step, every step ends
        at the same live bytes, and the peak is what the experiments'
        ``meta_memory_step`` measures for the same arguments."""
        problems = []
        c = self.cfg
        if len(set(self.per_step_memory)) != 1:
            problems.append("peak/live bytes changed between timed steps")
        ref = meta_memory_step(
            self.model_cfg, C4, n_gpus=c["n_gpus"], mp=c["mp"],
            batch=c["batch"], seq_len=c["seq"],
        )
        if not ref.fits:
            problems.append("meta_memory_step does not fit")
        if ref.peak_allocated_bytes != self.ctx.device.max_allocated_bytes:
            problems.append(
                f"peak {self.ctx.device.max_allocated_bytes} != "
                f"meta_memory_step {ref.peak_allocated_bytes}"
            )
        return problems


# ---------------------------------------------------------------------------
# chaos campaigns under the Supervisor
# ---------------------------------------------------------------------------


class ChaosRun:
    """Seeded mixed-fault campaigns; one block is one campaign."""

    def __init__(self, seed: int, tmp: Path, *, recorder=None, shrink: bool = False):
        self.seed = seed
        self.tmp = tmp
        self.recorder = recorder
        self.cfg = dict(CHAOS)
        if shrink:
            self.cfg.update(total_steps=8, oracle_checks=1)
        self.corpus = SyntheticCorpus(CHAOS_MODEL.vocab_size, seed=seed)
        self.next_campaign = 0
        self.rss_mb: float | None = None
        self.kept: list[tuple[ChaosCampaign, object]] = []
        self.problems: list[str] = []
        self.failed_ops = 0
        self.injections = 0
        self.restarts = 0
        self.sim: dict = {}
        self._gates: dict[int, threading.Barrier] = {}
        self._gate_lock = threading.Lock()

    def _build(self, ctx):
        zero = ZeROConfig(stage=2, checkpoint_activations=False,
                          memory_defrag=False, audit_cadence=1)
        return build_model_and_engine(
            ctx, CHAOS_MODEL, zero, dp_group=ctx.world, dtype=np.float32,
            seed=self.seed, engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
        )

    def _gate(self, ctx) -> threading.Barrier:
        """One harness barrier per attempt (the world shrinks across
        restarts; the fabric object is the attempt's identity)."""
        with self._gate_lock:
            gate = self._gates.get(id(ctx.fabric))
            if gate is None:
                gate = self._gates[id(ctx.fabric)] = threading.Barrier(ctx.world_size)
            return gate

    def _train_fn(self, root: Path, total_steps: int, cid: int, clock: StepClock,
                  capture_step: int | None = None):
        """Lock-step supervised training as in ``tests/test_chaos.py``:
        buddies first, the checkpoint ring as fallback, a checkpoint every
        ``ckpt_every`` steps. A failing rank raises inside ``train_step``
        and its peers abort in that step's collectives, so nobody is left
        waiting at the harness barrier."""
        rec = self.recorder
        c = self.cfg

        def train_fn(ctx):
            lead = ctx.rank == 0
            gate = self._gate(ctx)
            if rec is not None:
                rec.set_step(cid * 1000)
            model, engine = self._build(ctx)
            if not recovery.resume_from_buddies(engine):
                latest = checkpoint_io.latest_checkpoint(root)
                if latest is not None:
                    checkpoint_io.load_checkpoint_resharded(engine, latest)
            losses = []
            for step in range(engine.step_count, total_steps):
                if rec is not None:
                    rec.set_step(None)
                gate.wait(GATE_TIMEOUT_S)
                if lead:
                    clock.kernel.append(kernel())
                gate.wait(GATE_TIMEOUT_S)
                if rec is not None:
                    rec.set_step(cid * 1000 + step)
                n0 = len(ctx.ledger.events)
                ids, tgt = self.corpus.sample_batch(c["batch"], c["seq"], rank=ctx.rank, step=step)
                t0 = time.perf_counter()
                losses.append(engine.train_step(ids, tgt).loss)
                if lead:
                    clock.step_ms.append((time.perf_counter() - t0) * 1e3)
                    if step == capture_step:
                        self.sim = _sim_metrics(
                            ctx.ledger.events[n0:], ctx.topology, ctx.device.spec,
                            CHAOS_MODEL, c["batch"], c["seq"], checkpointing=False,
                            mp=1, peak_alloc_bytes=ctx.device.max_allocated_bytes,
                        )
                if engine.step_count % c["ckpt_every"] == 0:
                    checkpoint_io.save_checkpoint(engine, root / f"step{engine.step_count}")
                ctx.barrier()
            if rec is not None:
                rec.set_step(None)
            return losses, engine.opt_state.master.data.copy()

        return train_fn

    def _supervisor(self, campaign: ChaosCampaign):
        plan = campaign.build_plan()
        sup = Supervisor(
            campaign.world, gpu=CHAOS_GPU, fault_plan=plan, timeout_s=15.0,
            retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=0.001),
            policy=RestartPolicy(max_restarts=8, quarantine_after=99),
            redundancy=RedundancyConfig(),
        )
        return sup, plan

    def setup(self) -> None:
        """Two fixed warm-up runs: a fault-free 4-step one that yields the
        steady-state simulated numbers, then an 8-step one with one fault
        of each recoverable kind, after which peak RSS is read. Campaign
        memory proper is mostly reference cycles awaiting the collector
        (RSS climbs ~50-100 MB per campaign), which depends on the draw
        and on when the collector runs; this point does not."""
        world = self.cfg["world"]
        quiet = ChaosCampaign(
            seed=self.seed, world=world, total_steps=4, kills=(), scribbles=(),
            rot_checkpoints=0, transients=(), perf_rules=(),
        )
        sup, _ = self._supervisor(quiet)
        sup.run(self._train_fn(self.tmp / "warm", 4, 999, StepClock(), capture_step=3))
        self._fixed_campaign("warm-faulty")
        self.rss_mb = rss_mb()

    def _fixed_campaign(self, tag: str) -> int:
        """An 8-step campaign of fixed composition — a kill, a scribble, a
        rotted checkpoint, a transient — whatever the seed. Returns its
        planned step count."""
        faulty = ChaosCampaign(
            seed=self.seed, world=self.cfg["world"], total_steps=8, kills=((2, 5),),
            scribbles=((0, 7, "m"),), rot_checkpoints=1, transients=((1, 3),),
            perf_rules=(),
        )
        sup, _ = self._supervisor(faulty)
        report = sup.run(self._train_fn(self.tmp / tag, 8, 998, StepClock()))
        if report.restarts != faulty.expected_restarts:
            self.problems.append(f"the fixed campaign ({tag}) recovered wrongly")
        self._gates.clear()
        return faulty.total_steps

    def calls_per_step(self) -> float:
        """Function calls of the fixed campaign, relaunches and restores
        included, per planned step."""
        with CallCounter() as calls:
            steps = self._fixed_campaign("counted")
        return calls.total / steps

    def block(self, n: int = 1) -> dict:
        """One campaign (``n`` is ignored): ``total_steps`` planned steps.
        Wall and CPU cover the whole supervised run — relaunches,
        buddy restores and checkpoint writes included — less the kernel
        readings."""
        c = self.cfg
        cid = self.next_campaign
        self.next_campaign += 1
        campaign = generate_campaign(
            self.seed * 100 + cid, world=c["world"], total_steps=c["total_steps"]
        )
        sup, plan = self._supervisor(campaign)
        root = self.tmp / f"campaign{cid}"
        clock = StepClock()
        rec = self.recorder
        if rec is not None:
            rec.set_step(cid * 1000)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            report = sup.run(self._train_fn(root, c["total_steps"], cid, clock))
        finally:
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            if rec is not None:
                rec.set_step(None)
            self._gates.clear()
        kernels_s = sum(py + npy for py, npy in clock.kernel) / 1e3
        self.injections += len(plan.events)
        self.restarts += report.restarts
        ok = (
            report.restarts == campaign.expected_restarts
            and report.final_world_size == campaign.final_world
            and all(e.kind == RestartKind.FAST_RECOVERY for e in report.events)
        )
        if not ok:
            self.failed_ops += 1
            self.problems.append(f"campaign {cid} recovered wrongly: {campaign.describe()}")
        if len(self.kept) < c["oracle_checks"]:
            self.kept.append((campaign, report))
        else:
            shutil.rmtree(root, ignore_errors=True)
        return {
            "n": c["total_steps"], "ops": 1, "wall_s": wall - kernels_s,
            "cpu_s": cpu - kernels_s, "step_ms": clock.step_ms, "kernel_ms": clock.kernel,
        }

    def sim_metrics(self) -> dict:
        return dict(self.sim)

    # -- the planned-downsize oracle --------------------------------------------

    def _reference_final_state(self, campaign: ChaosCampaign, root: Path):
        c = self.cfg

        def segment(world, load_from, until, save_to):
            def fn(ctx):
                model, engine = self._build(ctx)
                if load_from is not None:
                    checkpoint_io.load_checkpoint_resharded(engine, load_from)
                losses = []
                for step in range(engine.step_count, until):
                    ids, tgt = self.corpus.sample_batch(c["batch"], c["seq"], rank=ctx.rank, step=step)
                    losses.append(engine.train_step(ids, tgt).loss)
                if save_to is not None:
                    checkpoint_io.save_checkpoint(engine, save_to)
                return losses, engine.opt_state.master.data.copy()

            return Cluster(world, gpu=CHAOS_GPU, timeout_s=15.0).run(fn)

        world = campaign.world
        load_from = None
        for i, (step, world_after) in enumerate(campaign.downsize_schedule()):
            save_to = root / f"ref{i}"
            segment(world, load_from, step, save_to)
            load_from, world = save_to, world_after
        return segment(world, load_from, campaign.total_steps, None)

    def verify(self) -> list[str]:
        """Bitwise check of the first campaigns' survivors against a
        fault-free run re-sharded at the planned downsize schedule."""
        for i, (campaign, report) in enumerate(self.kept):
            ref = self._reference_final_state(campaign, self.tmp / f"oracle{i}")
            for rank in range(campaign.final_world):
                same_loss = report.results[rank][0][-1] == ref[rank][0][-1]
                same_state = np.array_equal(report.results[rank][1], ref[rank][1])
                if not (same_loss and same_state):
                    self.failed_ops += 1
                    self.problems.append(
                        f"campaign {i} rank {rank} diverged from the oracle: "
                        f"{campaign.describe()}"
                    )
                    break
        return self.problems
