"""OOM postmortem: why did my 130B run die, and which knob saves it?

Usage:
    PYTHONPATH=src python examples/oom_postmortem.py

Deliberately runs a ~130B-parameter model with plain data parallelism
(ZeRO stage 0) on one virtual rank of a 400-GPU, MP=16 job — the
optimizer states alone need ~6x the 32 GB card. The memory observatory
(``repro.memprof``) turns the resulting OOM into a structured postmortem:
live bytes by ZeRO state class, a capacity-vs-fragmentation verdict, and
an advisor hint naming the config that fits (stage 2 + Pa here). The
script then re-runs the same workload under the recommended config to
show it completes.
"""

from repro.analysis.advisor import recommend_zero_config
from repro.experiments.common import meta_memory_step, virtual_groups
from repro.memprof import MemoryProfiler, Workload
from repro.memsim.errors import OutOfMemoryError
from repro.nn.transformer import GPTConfig
from repro.runtime import virtual_rank_context
from repro.zero.config import ZeROConfig
from repro.zero.factory import build_model_and_engine
from repro.zero.placement import Mesh

MODEL = GPTConfig(n_layers=160, hidden=8192, n_heads=64)  # ~130B params
N_GPUS, MP, BATCH = 400, 16, 8
STAGE0 = ZeROConfig(stage=0, checkpoint_activations=True)


def crash_with_observatory() -> OutOfMemoryError:
    """Build the stage-0 engine with the observatory attached; return the
    enriched exception."""
    ctx = virtual_rank_context(N_GPUS)
    dp_group, mp_group = virtual_groups(ctx, N_GPUS, MP)
    profiler = MemoryProfiler(
        ctx.device,
        workload=Workload(model=MODEL, n_gpus=N_GPUS, mp=MP),
    )
    try:
        build_model_and_engine(
            ctx, MODEL, STAGE0, dp_group=dp_group, mp_group=mp_group, meta=True,
        )
    except OutOfMemoryError as exc:
        return exc
    finally:
        profiler.detach()
    raise RuntimeError("expected the stage-0 build to run out of memory")


def main() -> None:
    psi_b = MODEL.total_params / 1e9
    print(f"Training a {psi_b:.0f}B model with plain DP (stage 0), "
          f"{N_GPUS} GPUs, MP={MP}, batch {BATCH}...\n")

    exc = crash_with_observatory()
    report = exc.postmortem
    print(report.render())

    advice = recommend_zero_config(MODEL, mesh=Mesh.of_world(N_GPUS, MP))
    cfg = advice.config
    knob = f"stage {cfg.stage}" + (" + Pa" if cfg.partition_activations else "")
    print(f"\nRe-running the same step under the advisor's pick ({knob})...")
    rerun = meta_memory_step(
        MODEL, cfg, n_gpus=N_GPUS, mp=MP, batch=BATCH, memprof=True,
    )
    print(f"  fits: {rerun.fits} — peak allocated {rerun.peak_allocated_gb:.1f} GB, "
          f"max cached {rerun.max_cached_gb:.1f} GB "
          f"(cached/allocated gap {rerun.cached_gap_gb:.1f} GB)")
    top = max(rerun.category_peaks, key=rerun.category_peaks.get)
    print(f"  dominant state class at peak: {top} "
          f"({rerun.category_peaks[top] / 2**30:.1f} GB)")


if __name__ == "__main__":
    main()
