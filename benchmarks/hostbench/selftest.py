"""``run.py --selftest``: the benchmark checking itself, on shrunken
workloads, in this process, in well under a minute.

It checks what a reader of the numbers relies on: the metric-name
grammar, that the names printed and the names ``BENCHMARK.json`` declares
are the same sets in both modes, the percentile rule, that the
simulated-clock metrics repeat to the last digit, and that the output
checks really fail when an output is perturbed.
"""

from __future__ import annotations

import time

import workloads
from common import NAME_RE

SECONDS = "0.4"


def _run(name: str, *extra: str) -> dict:
    args = workloads.parse_args(
        ["--workload", name, "--seed", "3", "--seconds", SECONDS, "--shrink", *extra]
    )
    return workloads.run_workload(args)


def _fake_blocks(samples: int) -> list[dict]:
    return [{
        "n": samples, "wall_s": samples * 0.01, "cpu_s": samples * 0.01,
        "step_wall_s": [0.01] * samples, "step_cpu_s": [0.01] * samples,
        "step_ms": [10.0 + i % 7 for i in range(samples)],
        "kernel_ms": [(1.5, 1.1)] * (samples + 1),
    }]


def main(spec: dict) -> int:
    t0 = time.time()
    failures: list[str] = []

    def check(what: str, ok: bool, detail: str = "") -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}" + (f" — {detail}" if detail and not ok else ""))
        if not ok:
            failures.append(what)

    names = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    every = names + sorted(e2e) + sorted(per_layer)
    check("metric and workload names match [A-Za-z0-9][A-Za-z0-9_.-]*",
          all(NAME_RE.match(n) for n in every))
    check("names are used once", len(set(every)) == len(every))
    check("workloads in BENCHMARK.json are the ones the harness defines",
          set(names) == set(workloads.WORKLOADS))
    check("setup_s is declared in seconds, lower is better",
          any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in spec["end_to_end"]))

    below, _ = workloads.host_metrics(_fake_blocks(99))
    at, _ = workloads.host_metrics(_fake_blocks(100))
    check("no step_ms_p90 below 100 samples", below["step_ms_p90"] is None)
    check("step_ms_p90 from 100 samples on", at["step_ms_p90"] is not None)

    sims = ("sim_step_ms", "sim_peak_alloc_mb", "comm_mb_per_step")
    first: dict[str, dict] = {}
    for name in names:
        plain = _run(name)
        first[name] = plain
        check(f"{name}: untraced run is correct", plain["correct"], str(plain["problems"]))
        check(f"{name}: untraced names == end_to_end", set(plain["metrics"]) == e2e,
              str(set(plain["metrics"]) ^ e2e))
        check(f"{name}: no end-to-end metric is zero",
              all(plain["metrics"][k] for k in e2e & set(plain["metrics"])))
        traced = _run(name, "--trace", "1")
        traced["metrics"].pop("setup_s", None)
        check(f"{name}: traced run is correct", traced["correct"], str(traced["problems"]))
        check(f"{name}: traced names == per_layer", set(traced["metrics"]) == per_layer,
              str(set(traced["metrics"]) ^ per_layer))
        share = traced["info"].get("cpu_accounted_share", 1.0)
        check(f"{name}: layer cpu + untraced share accounts for process cpu within 10%",
              abs(share - 1.0) <= 0.10, f"accounted {share:.3f}")

    for name in ("compute_w2_s2", "meta_rank_100b"):
        again = _run(name)
        same = all(again["metrics"][k] == first[name]["metrics"][k] for k in sims)
        check(f"{name}: simulated-clock metrics identical across two runs", same)

    for name in ("fabric_w8_s3", "hooks_w4_s3", "chaos_w4_s2"):
        broken = _run(name, "--sabotage")
        check(f"{name}: a perturbed output fails the check",
              not broken["correct"] and broken["failed"] >= 1)

    print(f"selftest: {'FAILED ' + str(failures) if failures else 'passed'} "
          f"in {time.time() - t0:.1f} s")
    return 1 if failures else 0
