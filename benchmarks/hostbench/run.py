"""hostbench: the two-clock benchmark of the ZeRO simulator.

    python benchmarks/hostbench/run.py --seed N [--workload W] [--trace 0|1]
                                       [--seconds S] [--out DIR] [--selftest]

Runs each named workload in its own fresh subprocess, one after another
(closed loop, one driver), prints every metric by name with its unit,
checks the outputs, and ends with one JSON line. ``--trace 0`` (default)
gives the end-to-end metrics; ``--trace 1`` is the traced run that gives
the per-layer metrics. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from common import ROOT, SRC, load_spec, median  # noqa: E402

CHILD = HERE / "workloads.py"
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_PINS:
        env[var] = "1"
    return env


def _run_child(workload: str, seed: int, seconds: float, trace: int, *,
               phase: str = "full", trace_out: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--phase", phase,
        "--t0", repr(time.monotonic()),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(
        cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload} ({phase}) exited {proc.returncode}\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 out: Path | None) -> dict:
    """All child processes of one workload; returns the full child's
    result with ``setup_s`` replaced by the median over the set-ups."""
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_run_child(workload, seed, seconds, 0, phase="setup")["metrics"]["setup_s"])
    trace_out = out / f"trace_{workload}.json" if (out and trace) else None
    data = _run_child(workload, seed, seconds, trace, trace_out=trace_out)
    if not trace:
        setups.append(data["metrics"]["setup_s"])
        data["info"]["setup_s_samples"] = setups
        data["metrics"]["setup_s"] = median(setups)
    else:
        data["metrics"].pop("setup_s", None)
    return data


def declared(spec: dict, trace: int) -> dict[str, dict]:
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(spec: dict, data: dict, trace: int) -> dict:
    """The contract's last line: exactly the declared metrics of the mode."""
    want = declared(spec, trace)
    got = data["metrics"]
    if set(got) != set(want):
        raise ChildFailed(
            f"{data['workload']}: metrics differ from BENCHMARK.json — "
            f"missing {sorted(set(want) - set(got))}, undeclared {sorted(set(got) - set(want))}"
        )
    return {
        "correct": bool(data["correct"]),
        "attempted": int(data["attempted"]),
        "failed": int(data["failed"]),
        "metrics": {
            name: {"value": got[name], "unit": want[name]["unit"]} for name in want
        },
    }


def print_report(spec: dict, data: dict, trace: int) -> None:
    want = declared(spec, trace)
    info = data["info"]
    print(f"== {data['workload']}  seed {data['seed']}  "
          f"{'traced (per-layer)' if trace else 'untraced (end-to-end)'}")
    for name, meta in want.items():
        value = data["metrics"][name]
        raw = data["raw"].get(name)
        extra = f"   (raw {raw:.4f})" if isinstance(raw, float) and not trace else ""
        print(f"  {name:36s} {value:14.6f} {meta['unit']:8s}{extra}")
    if not trace:
        p90 = info.get("step_ms_p90")
        print(f"  step_ms samples: {info.get('step_samples')}; step_ms_p90: "
              + (f"{p90:.3f} ms" if p90 is not None else "omitted (fewer than 100 samples)"))
        print(f"  steps_per_s block spread (IQR/median): {info.get('block_spread', 0.0):.3f}; "
              f"calibration drift {info.get('calib_drift', 0.0):.3f}"
              + ("  ** noisy run **" if info.get("noisy") else ""))
        if "hooks_overhead_ratio" in info:
            print(f"  hooks_overhead_ratio (on/off block step time): {info['hooks_overhead_ratio']:.4f}")
    print(f"  ops_attempted {data['attempted']}  ops_failed {data['failed']}  "
          f"correct {data['correct']}")
    for problem in data["problems"]:
        print(f"  !! {problem}")


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "machine": platform.machine(),
    }


def pin_to_one_cpu() -> None:
    """The children inherit this; the driver itself only waits."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=None,
                        help="one of the six names; repeatable; default all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for result_*.json and trace_<workload>.json")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"hostbench: {SRC / 'repro'} not found — run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    pin_to_one_cpu()
    if args.selftest:
        import selftest

        return selftest.main(spec)
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workload or names
    for w in chosen:
        if w not in names:
            parser.error(f"unknown workload {w!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    results, lines = {}, {}
    try:
        for w in chosen:
            data = run_workload(w, args.seed, seconds, args.trace, args.out)
            lines[w] = result_line(spec, data, args.trace)
            print_report(spec, data, args.trace)
            results[w] = data
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        subset = "" if chosen == names else "+".join(chosen) + "_"
        path = args.out / f"result_{subset}seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps({
            "seed": args.seed, "trace": args.trace, "seconds": seconds,
            "env": environment(), "wall_s": time.time() - t0, "workloads": results,
        }, indent=1))
        print(f"wrote {path}")
    if len(chosen) == 1:
        print(json.dumps(lines[chosen[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {w: r["metrics"] for w, r in lines.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
