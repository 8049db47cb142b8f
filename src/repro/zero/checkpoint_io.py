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

A rank file is one serialisation of the owned-state record
(``repro.zero.owned``): ``save_checkpoint`` is ``capture`` plus CRC-32 and
an atomic rename, and both loaders hand the verified rank files to
``restore`` as pieces. Elastic re-sharding — ``load_checkpoint_resharded``
loading an N-rank checkpoint into an M-rank world — is therefore the same
fill-my-partition rule as a same-degree load, and a re-sharded resume is
bitwise identical to an uninterrupted M-rank run resumed from the same
state: the property the elastic ``Supervisor`` relies on after a rank
failure shrinks the world.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import threading
import zipfile
import zlib

import numpy as np

from repro.integrity.digest import digest_array
from repro.parallel.engine import BaseEngine
from repro.zero.owned import (
    ADAM_KEYS, SCALAR_KEYS, Header, OwnedState, capture, restore,
)

FORMAT_VERSION = 2

#: meta.json field -> ``Header`` field (the file keeps its v2 names).
_META_FIELDS = {
    "engine": "engine_name", "world_size": "world_size",
    "flat_numel": "flat_numel", "flat_numel_unpadded": "flat_numel_unpadded",
    "step_count": "step",
}

#: Rank threads parse ``.npz`` headers one at a time: numpy parses each with
#: ``ast.literal_eval``, and CPython 3.11's AST validator keeps shared state,
#: so concurrent loads could raise an untyped ``SystemError``.
_NPZ_READ_LOCK = threading.Lock()


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
    state = capture(engine)
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # The v2 rank file: the Adam vectors, the scalars, the stage-3 shard.
    payload = {k: state.shards[k] for k in ADAM_KEYS}
    payload.update({k: np.asarray(v) for k, v in state.scalars.items()})
    if "param_shard" in state.shards:
        payload["param_shard"] = state.shards["param_shard"]
    # Per-array CRC-32 checksums, stored inside the same file so the
    # checkpoint stays self-verifying: loaders reject any array whose
    # bytes changed at rest (bit rot) — see _read_rank.
    checksums = {k: digest_array(v) for k, v in payload.items()}
    payload["checksums"] = np.asarray(json.dumps(checksums))
    path = directory / f"rank{state.owner}.npz"
    _atomic_write_npz(path, payload)
    if engine.ctx.faults is not None:  # rot rules (FaultPlan.rot_checkpoint)
        engine.ctx.faults.checkpoint_written(engine, path)
    if state.owner == 0:
        meta = {
            "format_version": FORMAT_VERSION,
            **{k: getattr(state, f) for k, f in _META_FIELDS.items()},
            "model_dtype": str(np.dtype(engine.model.dtype)),
        }
        _atomic_write_text(directory / "meta.json", json.dumps(meta, indent=2))
        rec = engine.ctx.recorder
        if rec is not None:
            rec.record(
                "checkpoint-saved", rank=engine.ctx.rank, step=state.step,
                t_s=engine.clock_s, path=str(directory), world_size=state.world_size,
            )
    # Durable point: a rank returning from save must be able to read every
    # peer's file (loaders validate all of them), so wait for the slowest.
    engine.dp_group.barrier(engine.ctx.rank)
    return path


# -- validation ---------------------------------------------------------------


def _read_meta(directory: pathlib.Path) -> Header:
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise ValueError(f"incomplete checkpoint: {directory} has no meta.json")
    meta = json.loads(meta_path.read_text())
    if meta["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {meta['format_version']}")
    return Header(**{f: meta[k] for k, f in _META_FIELDS.items()})


def _rank_files(directory: pathlib.Path) -> dict[int, pathlib.Path]:
    out = {}
    for p in directory.glob("rank*.npz"):
        m = re.fullmatch(r"rank(\d+)\.npz", p.name)
        if m:
            out[int(m.group(1))] = p
    return out


def _read_rank(path: pathlib.Path, header: Header, index: int) -> OwnedState:
    """The one read-and-verify of a rank file, back into the record.

    Its recorded step must agree with meta.json (a file from another save
    is a torn checkpoint), and every array must match the CRC-32 recorded
    at save time — bit rot at rest, whether in an array's bytes or in the
    npz container itself, is rejected the same way. Checkpoints written
    before checksums existed carry no ``checksums`` entry and are accepted
    as-is. The file records no bounds: a shard as long as the flat space
    is replicated (DDP), any other is rank ``index``'s equal partition.
    """
    try:
        with _NPZ_READ_LOCK, np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
    except (zipfile.BadZipFile, zlib.error, OSError) as exc:
        raise ValueError(
            f"corrupt checkpoint: {path.name} is unreadable ({exc})"
        ) from exc
    if int(arrays["step_count"]) != header.step:
        raise ValueError(
            f"torn checkpoint: {path.name} is at step {int(arrays['step_count'])} "
            f"but meta.json says step {header.step}"
        )
    checksums = arrays.pop("checksums", None)
    expected = {} if checksums is None else json.loads(str(checksums[()]))
    for key, crc in expected.items():
        if key not in arrays:
            raise ValueError(f"corrupt checkpoint: {path.name} lost array {key!r}")
        if digest_array(arrays[key]) != int(crc):
            raise ValueError(
                f"corrupt checkpoint: {path.name} array {key!r} fails its "
                f"checksum (bit rot at rest)"
            )
    numel = arrays["master"].shape[0]
    lo = 0 if numel == header.flat_numel else index * numel
    scalars = {k: arrays.pop(k) for k in SCALAR_KEYS}
    return OwnedState(
        **vars(header), owner=index, part_lo=lo, part_hi=lo + numel,
        shards=arrays, scalars=scalars,
    )


def _read_ranks(directory: pathlib.Path, header: Header):
    """Every rank file of the checkpoint, verified, in rank order (lazily).

    The directory must hold exactly the rank files meta.json promises.
    Loading is SPMD, so every rank reads *all* of them, not just the ones
    its partition overlaps: if only the rank whose file is torn raised,
    its peers would sail on into the parameter all-gather and hang.
    """
    files = _rank_files(directory)
    if set(files) != set(range(header.world_size)):
        raise ValueError(
            f"torn checkpoint: {directory} has rank files {sorted(files)} "
            f"but meta.json promises world_size {header.world_size}"
        )
    for index in range(header.world_size):
        yield _read_rank(files[index], header, index)


def is_complete_checkpoint(directory: str | pathlib.Path) -> bool:
    """True when ``directory`` is a durable (complete, untorn) checkpoint."""
    directory = pathlib.Path(directory)
    try:
        for _ in _read_ranks(directory, _read_meta(directory)):
            pass
    except (ValueError, OSError, KeyError, json.JSONDecodeError):
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
        step = _read_meta(sub).step
        if best is None or step > best[0]:
            best = (step, sub)
    return best[1] if best else None


# -- loading ------------------------------------------------------------------


def _load(engine: BaseEngine, directory: str | pathlib.Path, *, strict: bool) -> None:
    directory = pathlib.Path(directory)
    header = _read_meta(directory)
    same_degree = header.world_size == engine.dp_group.size
    if strict and not same_degree:
        raise ValueError(
            f"checkpoint was written by a DP world of {header.world_size}, "
            f"this engine runs {engine.dp_group.size} "
            f"(use load_checkpoint_resharded to re-shard)"
        )
    if same_degree and header.flat_numel != engine.layout.numel:
        raise ValueError(
            f"checkpoint flat size {header.flat_numel} != model {engine.layout.numel}"
        )
    restore(
        engine, header, _read_ranks(directory, header),
        source=None if same_degree else "checkpoint",
    )


def load_checkpoint(engine: BaseEngine, directory: str | pathlib.Path) -> None:
    """Restore this rank's shard and rebuild the fp16 parameters.

    Strict mode: the checkpoint must come from a world of the same DP
    degree. Use ``load_checkpoint_resharded`` to resume at a different
    degree (elastic recovery).
    """
    _load(engine, directory, strict=True)


def load_checkpoint_resharded(
    engine: BaseEngine, directory: str | pathlib.Path
) -> None:
    """Restore a checkpoint written by *any* DP degree into this engine.

    Every rank reads and verifies all N source rank files and keeps only
    the pieces overlapping its own partition (``repro.zero.owned.restore``:
    clipped at the unpadded length, zero in the new tail padding). Adam
    state is elementwise over the flat space, so resuming re-sharded is
    bitwise identical to resuming at the original degree and continuing —
    which is how the elastic ``Supervisor`` re-forms a smaller world after
    a rank failure without losing optimizer state.
    """
    _load(engine, directory, strict=False)
