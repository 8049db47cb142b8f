"""ZeRO: the paper's primary contribution.

* ``stage12`` — ZeRO-DP Pos and Pos+g engines (optimizer-state and gradient
  partitioning, Sections 5.1-5.2).
* ``stage3`` — ZeRO-DP Pos+g+p engine (parameter partitioning, Section 5.3).
* ``activation`` — ZeRO-R Pa / Pa+cpu partitioned activation checkpointing.
* ``config`` — stage/feature switches and the paper's C1-C5 presets.

Constant-size buffers (CB) live in the engine base
(``repro.parallel.engine``); memory defragmentation (MD) is a Device
policy (``Device.enable_defrag``).
"""

from repro.zero.activation import PartitionedCPUStore, PartitionedStore
from repro.zero.config import C1, C2, C3, C4, C5, PAPER_CONFIGS, ZeROConfig
from repro.zero.stage12 import ZeroStage1Engine, ZeroStage2Engine
from repro.zero.stage3 import ZeroStage3Engine
from repro.zero.factory import build_model_and_engine
from repro.zero.checkpoint_io import load_checkpoint, save_checkpoint

__all__ = [
    "C1",
    "C2",
    "C3",
    "C4",
    "C5",
    "PAPER_CONFIGS",
    "PartitionedCPUStore",
    "PartitionedStore",
    "ZeROConfig",
    "ZeroStage1Engine",
    "ZeroStage2Engine",
    "ZeroStage3Engine",
    "build_model_and_engine",
    "load_checkpoint",
    "save_checkpoint",
]
