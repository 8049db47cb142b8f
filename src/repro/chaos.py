"""Chaos campaigns: seeded, mixed-fault soak plans for the Supervisor.

A campaign composes every fault family the fabric can inject — permanent
rank kills, silent shard scribbles (SDC), checkpoint bit rot, transient
collective faults, and gray-failure performance rules — into one
``FaultPlan``, drawn from a seeded RNG so a failing campaign replays
exactly. The generator only emits *survivable* compositions:

* kills land on distinct steps (single faults, each recoverable from a
  buddy replica) and never on rank 0, so scribbles scheduled on rank 0
  keep their physical target across elastic renumbering;
* scribble steps avoid kill steps (a corruption raised mid-kill-step
  would race the fabric abort);
* transient collective faults stay inside the retry budget.

Because every fault is either absorbed (transients, perf rules), undone
(scribbles: detected, fast-recovered, and the rule is consumed), or a
planned-downsize (kills at known steps), the survivors' final state is
*predictable*: it must equal, bitwise, a fault-free run that re-shards
at exactly ``downsize_schedule()``. That oracle is what the chaos tests
check — surviving is necessary, converging identically is the bar.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.comm.faults import FaultPlan

SCRIBBLE_TARGETS = ("master", "m", "v")
#: at most this many kills (and scribbles) per campaign
MAX_KILLS = MAX_SCRIBBLES = 2


@dataclass(frozen=True)
class ChaosCampaign:
    """One seeded soak composition over a ``world``-rank, ``total_steps``
    run. ``kills`` / ``scribbles`` use ``at_step`` semantics (absolute
    ``step_count`` at the top of the step, surviving restarts)."""

    seed: int
    world: int
    total_steps: int
    kills: tuple[tuple[int, int], ...]               # (rank, at_step), step-sorted
    scribbles: tuple[tuple[int, int, str], ...]      # (rank, at_step, target)
    rot_checkpoints: int                             # rot rules (nth=1 each)
    transients: tuple[tuple[int, int], ...]          # (rank, nth collective)
    perf_rules: tuple[tuple, ...]                    # ("throttle"|"jitter"|"degrade", ...)

    # -- derived expectations -------------------------------------------------

    @property
    def final_world(self) -> int:
        return self.world - len(self.kills)

    @property
    def expected_restarts(self) -> int:
        """Each kill and each detected scribble costs one fast recovery."""
        return len(self.kills) + len(self.scribbles)

    def downsize_schedule(self) -> tuple[tuple[int, int], ...]:
        """The planned-downsize oracle: ``(resume_step, world_after)`` per
        kill. A kill with ``at_step=k`` fires at the top of the step where
        ``step_count`` becomes ``k``; in lock-step training every boundary
        through ``k-1`` is then globally refreshed, so fast recovery
        resumes at ``k-1`` with one fewer rank."""
        out = []
        w = self.world
        for _, at_step in self.kills:
            w -= 1
            out.append((at_step - 1, w))
        return tuple(out)

    def build_plan(self) -> FaultPlan:
        plan = FaultPlan(seed=self.seed)
        for rank, at_step in self.kills:
            plan.kill_rank(rank, at_step=at_step)
        for rank, at_step, target in self.scribbles:
            plan.scribble_tensor(rank=rank, at_step=at_step, target=target)
        for _ in range(self.rot_checkpoints):
            plan.rot_checkpoint(nth=1, times=1)
        for rank, nth in self.transients:
            plan.fail_collective(rank=rank, nth=nth, times=1)
        for rule in self.perf_rules:
            if rule[0] == "throttle":
                plan.throttle_rank(rank=rule[1], compute_factor=rule[2])
            elif rule[0] == "jitter":
                plan.jitter(rank=rule[1], sigma=rule[2])
            else:
                plan.degrade_link(src=rule[1], bw_factor=rule[2])
        return plan

    def describe(self) -> str:
        return (
            f"campaign(seed={self.seed}, world={self.world}, "
            f"kills={list(self.kills)}, scribbles={list(self.scribbles)}, "
            f"rot={self.rot_checkpoints}, transients={len(self.transients)}, "
            f"perf={len(self.perf_rules)})"
        )


def generate_campaign(
    seed: int,
    *,
    world: int = 4,
    total_steps: int = 8,
) -> ChaosCampaign:
    """Draw one survivable mixed campaign from ``seed``.

    Fault steps are sampled without replacement from ``[3, total_steps]``
    (late enough that at least two boundaries have refreshed — the
    buddy store's ``KEEP`` (2) skew margin is always satisfiable).
    """
    if world < 3:
        raise ValueError("chaos campaigns need world >= 3 (a kill must leave >= 2)")
    rng = random.Random(seed)
    n_kills = rng.randint(0, min(MAX_KILLS, world - 2))
    n_scribbles = rng.randint(0, MAX_SCRIBBLES)
    steps = rng.sample(range(3, total_steps + 1), n_kills + n_scribbles)

    kills = []
    w = world
    for at_step in sorted(steps[:n_kills]):
        kills.append((rng.randrange(1, w), at_step))  # never rank 0
        w -= 1
    scribbles = tuple(
        (0, at_step, rng.choice(SCRIBBLE_TARGETS))
        for at_step in sorted(steps[n_kills:])
    )
    transients = tuple(
        (rng.randrange(world), rng.randint(1, 10))
        for _ in range(rng.randint(0, 1))
    )
    perf_rules = []
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(("throttle", "jitter", "degrade"))
        if kind == "throttle":
            perf_rules.append(("throttle", rng.randrange(world), rng.uniform(2.0, 6.0)))
        elif kind == "jitter":
            perf_rules.append(("jitter", rng.randrange(world), rng.uniform(0.01, 0.1)))
        else:
            perf_rules.append(("degrade", rng.randrange(world), rng.uniform(0.2, 0.6)))
    return ChaosCampaign(
        seed=seed, world=world, total_steps=total_steps,
        kills=tuple(kills), scribbles=scribbles,
        rot_checkpoints=rng.randint(0, 1), transients=transients,
        perf_rules=tuple(perf_rules),
    )
