"""Distributed training-state checkpointing for ZeRO engines.

Each rank persists exactly the state it owns — under ZeRO that is its
1/Nd optimizer partition (plus the fp16 parameter shard for stage 3) —
so checkpoint size per rank shrinks with the DP degree just like runtime
memory does. On load, stages 0-2 rebuild the replicated fp16 parameters
from the restored fp32 masters via the engine's own parameter all-gather;
stage 3 simply restores its shard (parameters re-materialize lazily).

Format: one ``rank{r}.npz`` per rank plus a ``meta.json`` written by rank
0. All files are written to a temp name and atomically renamed, so a rank
dying mid-save can leave a checkpoint *incomplete* (missing rank files)
but never *corrupt* (half-written files). Loaders validate completeness:
the directory must hold exactly ``meta.world_size`` rank files and every
rank file's recorded step must agree with ``meta.json`` — a torn
checkpoint (e.g. one rank's file from an older save) is rejected.
Every array additionally carries a CRC-32 checksum recorded at save time
(stored inside the same npz), verified on every load — so *bit rot at
rest* (a flipped bit in a durably-written file) is rejected exactly like
a torn save, and ``latest_checkpoint`` falls back to the previous
verified checkpoint. The ``VerifiedCheckpointRing`` (repro.integrity)
builds its rollback guarantees on this verification.

Resuming is bitwise: training N steps, saving, loading, and training M
more produces exactly the states of training N+M steps straight through
(tested in tests/test_checkpoint_io.py).

Elastic re-sharding: ``load_checkpoint_resharded`` loads a checkpoint
written by an N-rank world into an M-rank world (M != N). Because the
flat layouts only differ in tail padding (padded to a multiple of the DP
degree), the concatenated shards are truncated to the unpadded length,
re-padded for the new degree, and re-sliced per the new partition bounds.
Adam's update is elementwise over the flat space, so a re-sharded resume
is bitwise identical to an uninterrupted M-rank run resumed from the same
state — the property the elastic ``Supervisor`` relies on after a rank
failure shrinks the world.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import zipfile
import zlib

import numpy as np

from repro.integrity.digest import digest_array
from repro.parallel.engine import BaseEngine

FORMAT_VERSION = 2

_VECTOR_KEYS = ("master", "m", "v")  # per-partition fp32 optimizer state
_SCALAR_KEYS = (
    "opt_step", "step_count", "micro_step",
    "scaler_scale", "scaler_good_steps", "scaler_skipped",
)


def _meta_for(engine: BaseEngine) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "engine": engine.name,
        "world_size": engine.dp_group.size,
        "flat_numel": engine.layout.numel,
        "flat_numel_unpadded": engine.layout.numel_unpadded,
        "step_count": engine.step_count,
        "model_dtype": str(np.dtype(engine.model.dtype)),
    }


def _atomic_write_npz(path: pathlib.Path, payload: dict) -> None:
    """Write an npz next to ``path`` and atomically rename into place.

    ``np.savez`` appends ``.npz`` to extension-less names, so write
    through an open handle to keep full control of the temp name.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        np.savez(f, **payload)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def save_checkpoint(engine: BaseEngine, directory: str | pathlib.Path) -> pathlib.Path:
    """Write this rank's shard of the training state.

    Every rank must call this (SPMD); rank files are disjoint so the only
    coordination is the closing barrier, which makes the return a durable
    point: once any rank's call returns, all files are in place. Each file
    appears atomically: a crash mid-save leaves an incomplete checkpoint
    that loaders reject, never a torn one they half-read.
    """
    if engine.is_meta:
        raise ValueError("cannot checkpoint a meta-mode engine (no values exist)")
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rank_index = engine.dp_group.group_index(engine.ctx.rank)

    payload = {
        "master": engine.opt_state.master.numpy(),
        "m": engine.opt_state.m.numpy(),
        "v": engine.opt_state.v.numpy(),
        "opt_step": np.asarray(engine.opt_state.step_count),
        "step_count": np.asarray(engine.step_count),
        "micro_step": np.asarray(engine._micro_step),
        "scaler_scale": np.asarray(engine.scaler.scale),
        "scaler_good_steps": np.asarray(engine.scaler.good_steps),
        "scaler_skipped": np.asarray(engine.scaler.n_skipped),
    }
    if hasattr(engine, "param_shard"):  # stage 3
        payload["param_shard"] = engine.param_shard.numpy()
    # Per-array CRC-32 checksums, stored inside the same file so the
    # checkpoint stays self-verifying: loaders reject any array whose
    # bytes changed at rest (bit rot) — see _verify_checksums.
    checksums = {k: digest_array(np.asarray(v)) for k, v in payload.items()}
    payload["checksums"] = np.asarray(json.dumps(checksums))
    path = directory / f"rank{rank_index}.npz"
    _atomic_write_npz(path, payload)
    plan = engine.ctx.fabric.fault_plan
    if plan is not None and plan.on_checkpoint_saved(engine.ctx.rank, path):
        # Injected bit rot (FaultPlan.rot_checkpoint): the save succeeded,
        # the file is silently damaged — only checksum verify-on-load or
        # the VerifiedCheckpointRing's post-save verification can tell.
        if engine.tracer is not None:
            engine.tracer.sdc_injected("sdc-ckpt-rot", "ckpt-rot", path=str(path))
    if rank_index == 0:
        _atomic_write_text(
            directory / "meta.json", json.dumps(_meta_for(engine), indent=2)
        )
        rec = engine.ctx.recorder
        if rec is not None:
            rec.record(
                "checkpoint-saved", rank=engine.ctx.rank, step=engine.step_count,
                t_s=engine.clock_s, path=str(directory), world_size=engine.dp_group.size,
            )
    # Durable point: a rank returning from save must be able to read every
    # peer's file (loaders validate all of them), so wait for the slowest.
    engine.dp_group.barrier(engine.ctx.rank)
    return path


# -- validation ---------------------------------------------------------------


def _read_meta(directory: pathlib.Path) -> dict:
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise ValueError(f"incomplete checkpoint: {directory} has no meta.json")
    meta = json.loads(meta_path.read_text())
    if meta["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {meta['format_version']}")
    return meta


def _rank_files(directory: pathlib.Path) -> dict[int, pathlib.Path]:
    out = {}
    for p in directory.glob("rank*.npz"):
        m = re.fullmatch(r"rank(\d+)\.npz", p.name)
        if m:
            out[int(m.group(1))] = p
    return out


def _check_complete(directory: pathlib.Path, meta: dict) -> dict[int, pathlib.Path]:
    """The directory must hold exactly the rank files meta promises."""
    files = _rank_files(directory)
    expected = set(range(meta["world_size"]))
    if set(files) != expected:
        raise ValueError(
            f"torn checkpoint: {directory} has rank files {sorted(files)} "
            f"but meta.json promises world_size {meta['world_size']}"
        )
    return files


def _check_rank_step(data, meta: dict, path: pathlib.Path) -> None:
    """A rank file whose step disagrees with meta.json is from another save."""
    if int(data["step_count"]) != meta["step_count"]:
        raise ValueError(
            f"torn checkpoint: {path.name} is at step {int(data['step_count'])} "
            f"but meta.json says step {meta['step_count']}"
        )


def _verify_checksums(data, path: pathlib.Path) -> None:
    """Every array must match the CRC-32 recorded at save time.

    Catches bit rot at rest: a flipped bit in an array's bytes (or in the
    npz container itself — numpy then raises, which callers map to the
    same rejection). Checkpoints written before checksums existed carry
    no ``checksums`` entry and are accepted as-is.
    """
    if "checksums" not in getattr(data, "files", ()):
        return
    expected = json.loads(str(data["checksums"][()]))
    for key, crc in expected.items():
        if key not in data.files:
            raise ValueError(
                f"corrupt checkpoint: {path.name} lost array {key!r}"
            )
        if digest_array(np.asarray(data[key])) != int(crc):
            raise ValueError(
                f"corrupt checkpoint: {path.name} array {key!r} fails its "
                f"checksum (bit rot at rest)"
            )


def _check_untorn(directory: pathlib.Path, meta: dict) -> dict[int, pathlib.Path]:
    """Validate every rank file, not just the caller's own.

    Loading is SPMD: if only the rank whose file is torn raised, its peers
    would sail on into the parameter all-gather and hang. Checking all
    files makes every rank reach the same verdict independently.
    """
    files = _check_complete(directory, meta)
    for path in files.values():
        try:
            with np.load(path) as data:
                _check_rank_step(data, meta, path)
                _verify_checksums(data, path)
        except (zipfile.BadZipFile, zlib.error, OSError) as exc:
            # Bit rot can land in the npz container rather than an
            # array's payload; normalize to the same rejection.
            raise ValueError(
                f"corrupt checkpoint: {path.name} is unreadable ({exc})"
            ) from exc
    return files


def _check_engine_compat(engine: BaseEngine, meta: dict) -> None:
    if meta["engine"] != engine.name:
        raise ValueError(
            f"checkpoint was written by engine {meta['engine']!r}, not {engine.name!r}"
        )
    if meta["flat_numel_unpadded"] != engine.layout.numel_unpadded:
        raise ValueError(
            f"checkpoint unpadded flat size {meta['flat_numel_unpadded']} "
            f"!= model {engine.layout.numel_unpadded}"
        )


def is_complete_checkpoint(directory: str | pathlib.Path) -> bool:
    """True when ``directory`` is a durable (complete, untorn) checkpoint."""
    directory = pathlib.Path(directory)
    try:
        _check_untorn(directory, _read_meta(directory))
    except (ValueError, OSError, KeyError, json.JSONDecodeError,
            zipfile.BadZipFile, zlib.error):
        return False
    return True


def latest_checkpoint(root: str | pathlib.Path) -> pathlib.Path | None:
    """The complete checkpoint under ``root`` with the highest step.

    Incomplete or torn subdirectories (e.g. a save interrupted by the
    failure that triggered recovery) are skipped — this is what makes a
    checkpoint *durable* from the supervisor's point of view.
    """
    root = pathlib.Path(root)
    if not root.is_dir():
        return None
    best: tuple[int, pathlib.Path] | None = None
    for sub in sorted(root.iterdir()):
        if not sub.is_dir() or not is_complete_checkpoint(sub):
            continue
        step = json.loads((sub / "meta.json").read_text())["step_count"]
        if best is None or step > best[0]:
            best = (step, sub)
    return best[1] if best else None


# -- loading ------------------------------------------------------------------


def _restore_scalars(engine: BaseEngine, data) -> None:
    engine.opt_state.step_count = int(data["opt_step"])
    engine.step_count = int(data["step_count"])
    engine._micro_step = int(data["micro_step"])
    engine.scaler.scale = float(data["scaler_scale"])
    engine.scaler.good_steps = int(data["scaler_good_steps"])
    engine.scaler.n_skipped = int(data["scaler_skipped"])


def _rebuild_fp16_params(engine: BaseEngine) -> None:
    """Rebuild the replicated fp16 parameters from the restored masters."""
    if hasattr(engine, "param_shard"):
        return  # stage 3: parameters materialize from param_shard lazily
    master16 = engine.opt_state.master.numpy().astype(engine.model.dtype)
    if engine.stage:  # stages 1-2: all-gather the partitions
        engine._publish_params(master16)
    else:  # DDP: full local master
        engine.layout.scatter_params(master16)


def load_checkpoint(engine: BaseEngine, directory: str | pathlib.Path) -> None:
    """Restore this rank's shard and rebuild the fp16 parameters.

    Strict mode: the checkpoint must come from a world of the same DP
    degree. Use ``load_checkpoint_resharded`` to resume at a different
    degree (elastic recovery).
    """
    if engine.is_meta:
        raise ValueError("cannot restore into a meta-mode engine")
    directory = pathlib.Path(directory)
    meta = _read_meta(directory)
    if meta["world_size"] != engine.dp_group.size:
        raise ValueError(
            f"checkpoint was written by a DP world of {meta['world_size']}, "
            f"this engine runs {engine.dp_group.size} "
            f"(use load_checkpoint_resharded to re-shard)"
        )
    if meta["flat_numel"] != engine.layout.numel:
        raise ValueError(
            f"checkpoint flat size {meta['flat_numel']} != model {engine.layout.numel}"
        )
    _check_engine_compat(engine, meta)
    _check_untorn(directory, meta)
    rank_index = engine.dp_group.group_index(engine.ctx.rank)
    path = directory / f"rank{rank_index}.npz"
    with np.load(path) as data:
        engine.opt_state.master.data[:] = data["master"]
        engine.opt_state.m.data[:] = data["m"]
        engine.opt_state.v.data[:] = data["v"]
        _restore_scalars(engine, data)
        if hasattr(engine, "param_shard"):
            engine.param_shard.data[:] = data["param_shard"]

    _rebuild_fp16_params(engine)
    if engine.integrity is not None:
        # The owned shards were legitimately rewritten; refresh the
        # digest guard's baseline so the restore isn't flagged.
        engine.integrity.record_shards()


def load_checkpoint_resharded(
    engine: BaseEngine, directory: str | pathlib.Path
) -> None:
    """Restore a checkpoint written by *any* DP degree into this engine.

    Every rank reads all N source shards, concatenates them over the flat
    space, strips the old tail padding, re-pads for the new degree, and
    keeps the slice its own partition bounds dictate. Adam state is
    elementwise over the flat space, so resuming re-sharded is bitwise
    identical to resuming at the original degree and continuing — which
    is how the elastic ``Supervisor`` re-forms a smaller world after a
    rank failure without losing optimizer state.
    """
    if engine.is_meta:
        raise ValueError("cannot restore into a meta-mode engine")
    directory = pathlib.Path(directory)
    meta = _read_meta(directory)
    _check_engine_compat(engine, meta)
    if meta["world_size"] == engine.dp_group.size:
        load_checkpoint(engine, directory)  # same degree: plain shard restore
        return
    files = _check_complete(directory, meta)

    unpadded = meta["flat_numel_unpadded"]
    new_numel = engine.layout.numel
    keys = list(_VECTOR_KEYS)
    if hasattr(engine, "param_shard"):
        keys.append("param_shard")
    pieces: dict[str, list[np.ndarray]] = {k: [] for k in keys}
    scalars = None
    for idx in range(meta["world_size"]):
        path = files[idx]
        with np.load(path) as data:
            _check_rank_step(data, meta, path)
            _verify_checksums(data, path)
            for k in keys:
                if k not in data:
                    raise ValueError(
                        f"torn checkpoint: {path.name} lacks {k!r} "
                        f"(engine {meta['engine']!r} expects it)"
                    )
                pieces[k].append(np.array(data[k]))
            if idx == 0:
                scalars = {k: np.array(data[k]) for k in _SCALAR_KEYS}

    lo, hi = engine.checkpoint_partition()

    def reshard(vecs: list[np.ndarray]) -> np.ndarray:
        if vecs[0].shape[0] == meta["flat_numel"]:
            full = vecs[0]  # replicated state (DDP): every rank holds a full copy
        else:
            full = np.concatenate(vecs)
        if full.shape[0] != meta["flat_numel"]:
            raise ValueError(
                f"torn checkpoint: shards total {full.shape[0]} elements, "
                f"meta.json promises {meta['flat_numel']}"
            )
        repadded = np.zeros(new_numel, full.dtype)
        repadded[:unpadded] = full[:unpadded]
        return repadded[lo:hi]

    engine.opt_state.master.data[:] = reshard(pieces["master"])
    engine.opt_state.m.data[:] = reshard(pieces["m"])
    engine.opt_state.v.data[:] = reshard(pieces["v"])
    if hasattr(engine, "param_shard"):
        engine.param_shard.data[:] = reshard(pieces["param_shard"])
    _restore_scalars(engine, scalars)
    _rebuild_fp16_params(engine)
    if engine.integrity is not None:
        engine.integrity.record_shards()
    rec = engine.ctx.recorder
    if rec is not None and engine.dp_group.group_index(engine.ctx.rank) == 0:
        rec.record(
            "reshard", rank=engine.ctx.rank, step=engine.step_count,
            t_s=engine.clock_s, source="checkpoint",
            world_from=meta["world_size"], world_to=engine.dp_group.size,
        )
