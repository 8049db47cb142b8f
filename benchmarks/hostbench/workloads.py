"""The workload process: one named workload, set up, measured, checked.

``run.py`` starts this file in a fresh subprocess per workload (own
``ru_maxrss``, no cache warmth shared between workloads) with BLAS pinned
to one thread. The process pins itself to one CPU: the rank threads are
serialised by the GIL anyway, and letting them spread over two cores
makes every step time bimodal (a 64-rank meta step reads 0.3 s or 0.95 s
depending on where the scheduler put the threads).

The timed region is ``N_BLOCKS`` blocks of steps (``runs.py`` says what a
block is). Every host-clock number is reported *at reference speed*: each
step's time is multiplied by ``REF_KERNEL_MS / (kernel readings around
it)``, a rate is the median block's, and the raw values are kept in the
result beside the scaled ones. The simulated-clock numbers need none of
that: they are pure functions of the recorded communication ledger and
allocator state.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import probe as probe_mod  # noqa: E402
import runs  # noqa: E402
from common import median, quartile_spread  # noqa: E402
from repro.analysis.comm_model import dp_volume_elements  # noqa: E402
from runs import SPECS, ChaosRun, ClusterRun, MetaRankRun  # noqa: E402

N_BLOCKS = 5
#: p90 / p10 of a run's kernel readings beyond this flags the run noisy
NOISY_DRIFT = 0.10
WORKLOADS = (
    "fabric_w8_s3", "compute_w2_s2", "meta_rank_100b",
    "meta_w64_s3", "hooks_w4_s3", "chaos_w4_s2",
)
#: modules whose ``from x import f`` names the probe must patch too
PATCH_ALSO = (runs,)

# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def measure(run, seconds: float, est_op_s: float, n_blocks: int = N_BLOCKS) -> list[dict]:
    """``n_blocks`` blocks of about ``seconds / n_blocks`` each. The step
    count of a block is set from the previous block's pace, before the
    block starts."""
    blocks = []
    per_block = seconds / n_blocks
    for _ in range(n_blocks):
        blk = run.block(max(1, round(per_block / est_op_s)))
        est_op_s = blk["wall_s"] / blk["ops"]
        blocks.append(blk)
    return blocks


def _readings(block: dict) -> list[float]:
    return [py + npy for py, npy in block["kernel_ms"]]


def step_factors(block: dict) -> list[float]:
    """Per step: what turns its measured time into time at reference
    speed. A step workload has a kernel reading on each side of every
    step; a campaign has one before each step and is scaled as a whole."""
    k = _readings(block)
    if "step_wall_s" in block:
        return [runs.REF_KERNEL_MS / ((k[i] + k[i + 1]) / 2.0) for i in range(block["n"])]
    whole = runs.REF_KERNEL_MS / (sum(k) / len(k))
    return [whole] * len(block["step_ms"])


def scaled_wall_cpu(block: dict, factors: list[float]) -> tuple[float, float]:
    """A block's wall and CPU seconds with each step scaled by its factor."""
    if "step_wall_s" in block:
        return (sum(w * f for w, f in zip(block["step_wall_s"], factors)),
                sum(c * f for c, f in zip(block["step_cpu_s"], factors)))
    return block["wall_s"] * factors[0], block["cpu_s"] * factors[0]


def host_metrics(blocks: list[dict]) -> tuple[dict, dict]:
    """(at reference speed, raw) host-clock numbers of a list of blocks."""

    def numbers(scaled: bool) -> dict:
        rates, cpus, steps = [], [], []
        for b in blocks:
            f = step_factors(b) if scaled else [1.0] * len(b["step_ms"])
            wall, cpu = scaled_wall_cpu(b, f)
            rates.append(b["n"] / wall)
            cpus.append(cpu * 1e3 / b["n"])
            steps.extend(ms * x for ms, x in zip(b["step_ms"], f))
        return {
            "steps_per_s": median(rates),
            "steps_per_s.block_spread": quartile_spread(rates),
            "step_ms_p50": median(steps),
            "step_ms.samples": len(steps),
            # the highest percentile with ten samples beyond it
            "step_ms_p90": float(np.percentile(steps, 90)) if len(steps) >= 100 else None,
            "cpu_ms_per_step": median(cpus),
        }

    return numbers(True), numbers(False)


def kernel_drift(blocks: list[dict]) -> float:
    """p90 / p10 - 1 of the kernel readings: how much the core's speed
    moved while the blocks ran."""
    k = [x for b in blocks for x in _readings(b)]
    lo, hi = np.percentile(k, [10, 90])
    return float(hi / lo - 1.0)


def scaled_setup_s(raw_s: float) -> float:
    """Set-up time at reference speed, from a reading taken right after."""
    return raw_s * runs.REF_KERNEL_MS / sum(runs.steady_kernel())


# ---------------------------------------------------------------------------
# per-layer metrics from the recorder
# ---------------------------------------------------------------------------


def layer_metrics(rec, steps: int, rank0_wall_s: float, process_cpu_s: float,
                  speed: float = 1.0) -> dict:
    """The per-layer table of one traced segment of ``steps`` steps;
    ``speed`` scales its times to reference speed (ratios need none)."""
    names = rec.aggregate()
    layers = rec.by_layer(names)
    per_ms = speed * 1e3 / steps

    def get(layer: str, field: str) -> float:
        return layers.get(layer, {}).get(field, 0)

    def calls_of(suffix: str, layer: str) -> float:
        return sum(
            row["r0_calls"] for name, row in names.items()
            if row["layer"] == layer and name.endswith(suffix)
        )

    def per_call_ms(layer: str) -> float:
        calls = get(layer, "r0_calls")
        return get(layer, "r0_wall_s") * speed * 1e3 / calls if calls else 0.0

    m: dict = {}
    fabric_wait = get("comm.fabric", "r0_wall_s") - get("comm.fabric", "r0_cpu_s")
    m["comm.fabric.exchanges"] = get("comm.fabric", "r0_calls") / steps
    m["comm.fabric.wait_ms"] = fabric_wait * per_ms
    m["comm.fabric.cpu_ms"] = get("comm.fabric", "all_cpu_s") * per_ms
    m["comm.fabric.wait_share"] = fabric_wait / rank0_wall_s if rank0_wall_s else 0.0
    m["comm.group.calls"] = get("comm.group", "r0_calls") / steps
    m["comm.group.cpu_ms"] = get("comm.group", "all_cpu_s") * per_ms
    m["comm.group.wall_ms"] = get("comm.group", "r0_wall_s") * per_ms
    m["comm.group.payload_mb"] = get("comm.ledger", "r0_amount") / runs.MB / steps
    m["comm.ledger.records"] = get("comm.ledger", "r0_calls") / steps
    m["comm.ledger.cpu_ms"] = get("comm.ledger", "all_cpu_s") * per_ms
    m["comm.faults.retries"] = float(get("comm.faults", "all_calls"))
    m["memsim.allocs"] = calls_of(".alloc", "memsim") / steps
    m["memsim.frees"] = calls_of(".free", "memsim") / steps
    m["memsim.cpu_ms"] = get("memsim", "all_cpu_s") * per_ms
    m["tensor.ops"] = get("tensor", "r0_calls") / steps
    m["tensor.cpu_ms"] = get("tensor", "all_cpu_s") * per_ms
    m["tensor.wall_ms"] = get("tensor", "r0_wall_s") * per_ms
    m["nn.fwd_cpu_ms"] = get("nn.fwd", "all_cpu_s") * per_ms
    m["nn.bwd_cpu_ms"] = get("nn.bwd", "all_cpu_s") * per_ms
    m["nn.loss_cpu_ms"] = get("nn.loss", "all_cpu_s") * per_ms
    m["optim.calls"] = get("optim", "r0_calls") / steps
    m["optim.cpu_ms"] = get("optim", "all_cpu_s") * per_ms
    m["zero.engine_cpu_ms"] = get("zero.engine", "all_cpu_s") * per_ms
    m["zero.engine_wall_ms"] = get("zero.engine", "r0_wall_s") * per_ms
    m["infinity.calls"] = get("infinity", "r0_calls") / steps
    m["infinity.cpu_ms"] = get("infinity", "all_cpu_s") * per_ms
    m["telemetry.events"] = get("telemetry", "r0_calls") / steps
    m["telemetry.cpu_ms"] = get("telemetry", "all_cpu_s") * per_ms
    m["memprof.events"] = get("memprof", "r0_calls") / steps
    m["memprof.cpu_ms"] = get("memprof", "all_cpu_s") * per_ms
    m["integrity.audits"] = calls_of(".on_boundary", "integrity") / steps
    m["integrity.cpu_ms"] = get("integrity", "all_cpu_s") * per_ms
    m["redundancy.refreshes"] = calls_of("RedundancyManager.on_boundary", "redundancy") / steps
    m["redundancy.cpu_ms"] = get("redundancy", "all_cpu_s") * per_ms
    m["redundancy.bytes_published"] = get("redundancy", "r0_amount") / steps
    m["obs.events"] = get("obs", "all_calls") / steps
    m["obs.cpu_ms"] = get("obs", "all_cpu_s") * per_ms
    m["health.cpu_ms"] = get("health", "all_cpu_s") * per_ms
    m["perfscope.analyze_ms"] = per_call_ms("perfscope")
    m["zero.checkpoint_io.saves"] = get("zero.checkpoint_io.save", "r0_calls") / steps
    m["zero.checkpoint_io.save_ms"] = per_call_ms("zero.checkpoint_io.save")
    m["zero.checkpoint_io.load_reshard_ms"] = per_call_ms("zero.checkpoint_io.load")
    m["supervisor.cpu_ms"] = get("supervisor", "all_cpu_s") * per_ms
    m["runtime.cluster_run_ms"] = (
        rec.cluster_run_overhead_s * speed * 1e3 / rec.cluster_runs if rec.cluster_runs else 0.0
    )
    m["data.sample_ms"] = get("data", "r0_wall_s") * per_ms
    traced_cpu = sum(row["all_cpu_s"] for row in layers.values())
    m["trace.untraced_cpu_share"] = (
        max(0.0, 1.0 - traced_cpu / process_cpu_s) if process_cpu_s else 0.0
    )
    m["trace.traced_cpu_ms"] = traced_cpu * per_ms
    return m


def check_layers(rec, must: set[str], hook_free: bool) -> list[str]:
    """A traced run's guarantees: every layer the workload must exercise
    recorded a span, and (without hooks) no hook layer recorded one."""
    problems = []
    layers = rec.by_layer()
    for layer in sorted(must):
        if not layers.get(layer, {}).get("all_calls"):
            problems.append(f"layer {layer} recorded no span")
    if hook_free:
        for layer in sorted(probe_mod.HOOK_LAYERS):
            if layers.get(layer, {}).get("all_calls"):
                problems.append(f"hook layer {layer} recorded spans without hooks")
    return problems


CORE_LAYERS = {"zero.engine", "nn.fwd", "nn.bwd", "nn.loss", "tensor", "memsim",
               "comm.group", "comm.ledger"}
MUST_LAYERS = {
    "fabric_w8_s3": CORE_LAYERS | {"comm.fabric", "runtime", "optim", "data"},
    "compute_w2_s2": CORE_LAYERS | {"comm.fabric", "runtime", "optim", "data"},
    "meta_rank_100b": CORE_LAYERS,
    "meta_w64_s3": CORE_LAYERS | {"comm.fabric", "runtime"},
    "hooks_w4_s3": CORE_LAYERS | {"comm.fabric", "runtime", "optim", "data"} | set(probe_mod.HOOK_LAYERS),
    "chaos_w4_s2": CORE_LAYERS | {
        "comm.fabric", "runtime", "optim", "data", "supervisor", "integrity",
        "redundancy", "zero.checkpoint_io.save",
    },
}


# ---------------------------------------------------------------------------
# one workload, end to end
# ---------------------------------------------------------------------------


class Result:
    """What the process prints: metrics plus everything they came from."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.data = {
            "workload": workload, "seed": seed, "trace": int(trace),
            "correct": True, "attempted": 0, "failed": 0,
            "problems": [], "metrics": {}, "raw": {}, "info": {},
        }

    def problem(self, text: str) -> None:
        self.data["problems"].append(text)
        self.data["correct"] = False

    def problems(self, texts) -> None:
        for t in texts:
            self.problem(t)

    def setup_done(self, t_start: float) -> None:
        raw = time.monotonic() - t_start
        self.data["raw"]["setup_s"] = raw
        self.data["metrics"]["setup_s"] = scaled_setup_s(raw)

    def end_to_end(self, blocks: list[dict], rss: float, calls: float, sim: dict,
                   **info) -> None:
        """Fill in the untraced run's metrics from its timed blocks."""
        scaled, raw = host_metrics(blocks)
        self.data["raw"].update(raw)
        self.data["metrics"].update(
            {k: scaled[k] for k in ("steps_per_s", "step_ms_p50", "cpu_ms_per_step")}
        )
        drift = kernel_drift(blocks)
        self.data["info"].update(
            block_spread=scaled["steps_per_s.block_spread"],
            step_samples=scaled["step_ms.samples"], step_ms_p90=scaled["step_ms_p90"],
            calib_drift=drift, noisy=drift > NOISY_DRIFT, **info,
        )
        self.data["metrics"]["peak_rss_mb"] = rss
        self.data["metrics"]["py_calls_per_step"] = calls
        self.data["metrics"].update(sim)

    def per_layer(self, rec, layer_m: dict, args) -> None:
        """Fill in the traced run's metrics and write the span file."""
        self.data["metrics"].update(layer_m)
        self.data["layers"] = rec.by_layer()
        self.data["spans_by_name"] = rec.aggregate()
        if args.trace_out:
            path = Path(args.trace_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"workload": args.workload, "spans": rec.rank0_spans()}))


def _finite_losses(result: Result, losses: list[list]) -> int:
    bad = sum(1 for per_rank in losses for v in per_rank if v is not None and not np.isfinite(v))
    if bad:
        result.problem(f"{bad} non-finite losses")
    return bad


def _bitwise_vs_stage0(result: Result, run: ClusterRun, n_steps: int = 5) -> None:
    """Loss trajectory of the first ``n_steps`` steps, every rank, bitwise
    equal to a stage-0 (plain DDP) run of the same seed and data."""
    ref = ClusterRun(run.spec, run.seed, stage=0, warmup=n_steps)
    ref.setup()
    for rank, (mine, theirs) in enumerate(zip(run.losses(), ref.losses())):
        if mine[:n_steps] != theirs[:n_steps]:
            result.problem(
                f"rank {rank} losses differ from stage 0: {mine[:n_steps]} vs {theirs[:n_steps]}"
            )
            result.data["failed"] += 1
            return


def _perturbed(losses: list[list]) -> list[list]:
    """The selftest's sabotage: one loss value nudged by one ulp."""
    out = [list(per_rank) for per_rank in losses]
    out[0][0] = float(np.nextafter(out[0][0], np.inf))
    return out


def _layer_metrics_of(result: Result, rec, blocks: list[dict], extra_cpu_s: float = 0.0) -> dict:
    """Per-layer table of the probed blocks. Process CPU is summed over
    the blocks' own windows, which is also where their spans were made."""
    steps = sum(b["n"] for b in blocks)
    cpu = sum(b["cpu_s"] for b in blocks) + extra_cpu_s
    wall = sum(b["wall_s"] for b in blocks)
    # one factor for the segment: the recorder sums spans, not steps
    speed = sum(scaled_wall_cpu(b, step_factors(b))[0] for b in blocks) / wall
    layer_m = layer_metrics(rec, steps, wall, cpu, speed)
    process_ms = cpu * speed * 1e3 / steps
    # 1.0 unless the threads' CPU clocks add up to more than the process clock
    accounted = layer_m["trace.traced_cpu_ms"] / process_ms + layer_m["trace.untraced_cpu_share"]
    result.data["info"].update(
        process_cpu_ms_per_step=process_ms, cpu_accounted_share=accounted,
        segment_speed=speed, span_cost_us=rec.span_cost_us(),
    )
    if abs(accounted - 1.0) > 0.10:
        result.problem(f"layer CPU accounts for {accounted:.2f} of process CPU")
    return layer_m


def _trace_common(layer_m: dict, plain: list[dict], traced: list[dict]) -> None:
    """Validity numbers every traced run reports."""
    both = plain + traced
    layer_m["trace.overhead_ratio"] = (
        host_metrics(plain)[0]["steps_per_s"] / host_metrics(traced)[0]["steps_per_s"]
    )
    layer_m["calib.pyloop_ms"] = median(py for b in both for py, _ in b["kernel_ms"])
    layer_m["calib.numpy_ms"] = median(npy for b in both for _, npy in b["kernel_ms"])
    layer_m["calib.drift"] = kernel_drift(both)
    layer_m["host.step_ms_p90"] = host_metrics(both)[0]["step_ms_p90"] or 0.0


def run_step_workload(name: str, args, result: Result, t_start: float) -> None:
    """fabric_w8_s3, compute_w2_s2, meta_w64_s3, meta_rank_100b."""
    rec = probe_mod.Recorder() if args.trace else None
    if name == "meta_rank_100b":
        run = MetaRankRun(args.seed, recorder=rec, shrink=args.shrink)
    else:
        run = ClusterRun(SPECS[name].shrunk() if args.shrink else SPECS[name],
                         args.seed, recorder=rec)
    run.setup()
    result.setup_done(t_start)
    if args.phase == "setup":
        return
    est = run.block(1)["wall_s"]  # pace estimate; not part of any metric
    if not args.trace:
        result.data["info"]["sites_checked"] = probe_mod.assert_unpatched(PATCH_ALSO)
        # counted here, at a fixed point of the process's history: the
        # allocator's cache state, hence the exact count, depends on it
        calls = run.calls_per_step()
        blocks = measure(run, args.seconds, est)
        result.end_to_end(blocks, run.rss_mb or runs.rss_mb(), calls, run.sim_metrics())
    else:
        if name == "meta_rank_100b":
            rec.bind_rank(0)  # the main thread is the virtual rank
        plain = measure(run, args.seconds * 0.3, est, n_blocks=2)
        rec.install(PATCH_ALSO)
        try:
            traced = measure(run, args.seconds * 0.5, 2 * plain[-1]["wall_s"] / plain[-1]["n"],
                             n_blocks=3)
        finally:
            rec.uninstall()
        layer_m = _layer_metrics_of(result, rec, traced)
        _trace_common(layer_m, plain, traced)
        result.problems(check_layers(rec, MUST_LAYERS[name], hook_free=True))
        layer_m["memsim.cache_hit_ratio"] = runs.cache_hit_ratio(run.device0)
        _scaling_extras(name, args, run, plain, layer_m)
        result.per_layer(rec, layer_m, args)
        blocks = plain + traced
    result.data["blocks"] = blocks
    result.data["attempted"] = sum(b["n"] for b in blocks)
    _verify_step_workload(name, args, run, result)


def _scaling_extras(name: str, args, run, plain: list[dict], layer_m: dict) -> None:
    """The single-worker baseline and the rank-scaling segment."""

    def step_ms_of(other: ClusterRun) -> float:
        other.setup()
        blocks = measure(other, args.seconds * 0.1, other.block(1)["wall_s"], n_blocks=1)
        return host_metrics(blocks)[0]["step_ms_p50"]

    step_ms = host_metrics(plain)[0]["step_ms_p50"]
    if name == "fabric_w8_s3":
        w1_ms = step_ms_of(ClusterRun(run.spec, args.seed, stage=0, world=1))
        layer_m["runtime.w1_step_ms"] = w1_ms
        layer_m["runtime.thread_scaling_ratio"] = step_ms / (run.spec.world * w1_ms)
    if name == "meta_w64_s3":
        quarter = max(2, run.spec.world // 4)
        small_ms = step_ms_of(ClusterRun(run.spec, args.seed, world=quarter))
        layer_m["runtime.rank_scaling_ratio"] = step_ms / ((run.spec.world / quarter) * small_ms)


def _verify_step_workload(name: str, args, run, result: Result) -> None:
    if name == "meta_rank_100b":
        result.problems(run.verify())
        return
    losses = run.losses()
    result.data["failed"] += _finite_losses(result, losses)
    if name in ("fabric_w8_s3", "compute_w2_s2"):
        if args.sabotage:
            run.ranks[0].losses = _perturbed(losses)[0]
        _bitwise_vs_stage0(result, run)
        want = dp_volume_elements(1.0, run.stage)
        got = run.volume_ratio()
        if abs(got - want) > 1e-9:
            result.problem(f"step volume {got} Psi, comm_model says {want} Psi")
    if name == "meta_w64_s3":
        peaks = {r.ctx.device.max_allocated_bytes for r in run.ranks}
        volumes = {r.ctx.ledger.nominal_bytes() for r in run.ranks}
        if len(peaks) != 1 or len(volumes) != 1:
            result.problem(f"ranks disagree: peaks {peaks}, ledger volumes {volumes}")


def run_hooks_workload(args, result: Result, tmp: Path, t_start: float) -> None:
    """hooks_w4_s3: off/on/on/off blocks twice over, a fresh cluster per
    block. A traced run probes the second four: hooks-on blocks feed the
    per-layer table, hooks-off blocks must leave the hook layers silent."""
    name = "hooks_w4_s3"
    spec = SPECS[name].shrunk() if args.shrink else SPECS[name]
    order = (False, True, True, False) * 2
    per_block = args.seconds / len(order)

    first = ClusterRun(spec, args.seed, hooks=True, tmp=tmp)
    first.setup()
    result.setup_done(t_start)
    if args.phase == "setup":
        first.finish_hooks()
        return
    # Pace estimate and the fixed-work point where peak RSS is read: the
    # later blocks' lengths depend on the machine's speed, this one's not.
    est = first.block(spec.rss_mark)["wall_s"] / spec.rss_mark
    sim = first.sim_metrics()
    calls = 0.0 if args.trace else first.calls_per_step()
    first.finish_hooks()
    rss = runs.rss_mb()
    if not args.trace:
        result.data["info"]["sites_checked"] = probe_mod.assert_unpatched(PATCH_ALSO)

    recs = {True: probe_mod.Recorder(), False: probe_mod.Recorder()} if args.trace else {}
    blocks: list[dict] = []
    losses_by: dict = {}
    analyze_ms = []
    analyze_cpu_s = 0.0
    for i, hooks_on in enumerate(order):
        rec = recs[hooks_on] if args.trace and i >= len(order) // 2 else None
        if rec is not None:
            rec.install(PATCH_ALSO)
        try:
            run = ClusterRun(spec, args.seed, hooks=hooks_on, tmp=tmp, recorder=rec)
            t0 = time.perf_counter()
            run.setup()
            budget = per_block - (time.perf_counter() - t0)
            blk = run.block(max(2, round(budget / (est * (2 if rec else 1)))))
            blk.update(hooks=hooks_on, probed=rec is not None)
            if hooks_on:
                if rec is not None:
                    rec.set_step(0)
                cpu0 = time.process_time()
                analyze_ms.append(run.finish_hooks() * 1e3)
                if rec is not None:
                    analyze_cpu_s += time.process_time() - cpu0
                    rec.set_step(None)
        finally:
            if rec is not None:
                rec.uninstall()
        blocks.append(blk)
        losses_by.setdefault(hooks_on, run.losses())
        result.data["failed"] += _finite_losses(result, run.losses())

    # hooks change where state lives and what is recorded, never numerics
    n_common = min(len(losses_by[False][0]), len(losses_by[True][0]))
    on_losses = _perturbed(losses_by[True]) if args.sabotage else losses_by[True]
    for rank in range(spec.world):
        if losses_by[False][rank][:n_common] != on_losses[rank][:n_common]:
            result.problem(f"rank {rank}: hooks-on losses differ from hooks-off")
            result.data["failed"] += 1
            break

    def pick(hooks_on: bool, probed: bool) -> list[dict]:
        return [b for b in blocks if b["hooks"] == hooks_on and b["probed"] == probed]

    def block_step_ms(selected: list[dict]) -> float:
        return median(host_metrics([b])[0]["step_ms_p50"] for b in selected)

    overhead = block_step_ms(pick(True, False)) / block_step_ms(pick(False, False))
    result.data["attempted"] = sum(b["n"] for b in blocks)
    result.data["blocks"] = blocks
    if not args.trace:
        result.end_to_end(
            pick(True, False), rss, calls, sim,
            hooks_overhead_ratio=overhead, perfscope_analyze_ms=median(analyze_ms),
        )
        return
    rec = recs[True]
    layer_m = _layer_metrics_of(result, rec, pick(True, True), extra_cpu_s=analyze_cpu_s)
    _trace_common(layer_m, pick(True, False), pick(True, True))
    layer_m["hooks.overhead_ratio"] = overhead
    layer_m["memsim.cache_hit_ratio"] = runs.cache_hit_ratio(run.device0)
    result.problems(check_layers(rec, MUST_LAYERS[name], hook_free=False))
    result.problems(check_layers(recs[False], CORE_LAYERS, hook_free=True))
    result.per_layer(rec, layer_m, args)


def run_chaos_workload(args, result: Result, tmp: Path, t_start: float) -> None:
    """chaos_w4_s2: campaigns until the time is up."""
    name = "chaos_w4_s2"
    run = ChaosRun(args.seed, tmp, shrink=args.shrink)
    run.setup()
    result.setup_done(t_start)
    if args.phase == "setup":
        return

    def campaigns(seconds: float) -> list[dict]:
        blocks = []
        deadline = time.perf_counter() + seconds
        longest = 0.0
        while not blocks or time.perf_counter() + longest < deadline:
            blocks.append(run.block())
            longest = max(longest, blocks[-1]["wall_s"])
        return blocks

    if not args.trace:
        result.data["info"]["sites_checked"] = probe_mod.assert_unpatched(PATCH_ALSO)
        calls = run.calls_per_step()
        blocks = campaigns(args.seconds)
        result.end_to_end(blocks, run.rss_mb, calls, run.sim_metrics(), campaigns=len(blocks))
    else:
        plain = campaigns(args.seconds * 0.35)
        restarts0, injections0 = run.restarts, run.injections
        rec = run.recorder = probe_mod.Recorder()
        rec.install(PATCH_ALSO)
        try:
            traced = campaigns(args.seconds * 0.65)
        finally:
            rec.uninstall()
            run.recorder = None
        layer_m = _layer_metrics_of(result, rec, traced)
        _trace_common(layer_m, plain, traced)
        restarts = run.restarts - restarts0
        supervisor_wall_s = rec.by_layer().get("supervisor", {}).get("r0_wall_s", 0.0)
        layer_m["supervisor.restarts"] = restarts / len(traced)
        layer_m["supervisor.restart_wall_ms"] = (
            supervisor_wall_s * 1e3 / restarts if restarts else 0.0
        )
        layer_m["comm.faults.injections"] = (run.injections - injections0) / len(traced)
        result.problems(check_layers(rec, MUST_LAYERS[name], hook_free=False))
        result.per_layer(rec, layer_m, args)
        blocks = plain + traced
    result.data["blocks"] = blocks
    result.data["attempted"] = len(blocks)
    if args.sabotage and run.kept:
        state = run.kept[0][1].results[0][1]
        state[0] = np.nextafter(state[0], np.float32(np.inf))
    result.problems(run.verify())
    result.data["failed"] += run.failed_ops


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

#: per-layer metrics a workload cannot produce read 0 in its traced run
PER_LAYER_DEFAULTS = (
    "comm.faults.injections", "memsim.cache_hit_ratio", "supervisor.restarts",
    "supervisor.restart_wall_ms", "runtime.w1_step_ms", "runtime.thread_scaling_ratio",
    "runtime.rank_scaling_ratio", "hooks.overhead_ratio",
)


def run_workload(args) -> dict:
    """Run one workload in this process and return its result dict."""
    t_start = args.t0 if args.t0 is not None else time.monotonic()
    result = Result(args.workload, args.seed, bool(args.trace))
    tmp = HERE / ".tmp" / f"{os.getpid()}-{args.workload}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "hooks_w4_s3":
            run_hooks_workload(args, result, tmp, t_start)
        elif args.workload == "chaos_w4_s2":
            run_chaos_workload(args, result, tmp, t_start)
        else:
            run_step_workload(args.workload, args, result, t_start)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # unless another workload process is using it
        except OSError:
            pass
    if args.trace and args.phase == "full":
        for name in PER_LAYER_DEFAULTS:
            result.data["metrics"].setdefault(name, 0.0)
    return result.data


def pin_to_one_cpu() -> int | None:
    """Pin this process to the highest-numbered CPU it may use."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("full", "setup"), default="full")
    p.add_argument("--t0", type=float, default=None,
                   help="time.monotonic() when the driver launched this process")
    p.add_argument("--trace-out", default=None)
    p.add_argument("--shrink", action="store_true", help="selftest sizes")
    p.add_argument("--sabotage", action="store_true",
                   help="selftest: perturb one output so the check must fail")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = pin_to_one_cpu()
    data = run_workload(args)
    data["info"]["cpu"] = cpu
    print(json.dumps(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
