"""Model checkpoints as ``.npz`` archives: bit-exact, byte-deterministic, atomic.

An uncompressed zip of one ``<name>.npy`` member (NEP 1) per parameter, sorted,
then ``meta.json``, every member stamped 1980-01-01.  A save goes through ``atomic_write``,
which the runner's report writers share: a failed save leaves the old checkpoint whole.
"""

from __future__ import annotations

import json
import os
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping

import numpy as np

from .tensor import Tensor

_META = "meta.json"
_EPOCH = (1980, 1, 1, 0, 0, 0)


class CheckpointError(ValueError):
    """Checkpoint file is malformed or does not match expectations."""


@contextmanager
def atomic_write(path, mode: str = "wb", **open_args):
    """Open a hidden temp file beside ``path`` for writing.  On a clean exit
    it is fsynced, ``os.replace``d onto ``path`` and the directory fsynced;
    on an exception it is removed.  Either way ``path`` is never partly written."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **open_args) as out:
            yield out
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)  # makes the rename itself durable
        finally:
            os.close(directory)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, params: Mapping[str, Tensor], meta: dict | None = None) -> None:
    with atomic_write(path) as out:
        with zipfile.ZipFile(out, "w", zipfile.ZIP_STORED) as zf:
            for name, p in sorted(params.items()):
                with zf.open(zipfile.ZipInfo(f"{name}.npy", _EPOCH), "w") as fh:
                    np.lib.format.write_array(fh, p.data, allow_pickle=False)
            zf.writestr(zipfile.ZipInfo(_META, _EPOCH),
                        json.dumps(dict(meta or {}), sort_keys=True))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Returns (name -> float64 array, meta)."""
    try:
        with zipfile.ZipFile(path) as zf:
            meta = json.loads(zf.read(_META))  # a KeyError names the missing meta.json
            arrays = {}
            for member in zf.namelist():
                if member != _META:
                    with zf.open(member) as fh:
                        arrays[member] = np.lib.format.read_array(fh, allow_pickle=False)
    except (zipfile.BadZipFile, KeyError, EOFError, ValueError, OSError, RuntimeError) as exc:
        raise CheckpointError(f"{path}: not a readable checkpoint ({exc})") from exc
    wrong = sorted(m for m, arr in arrays.items() if not m.endswith(".npy") or arr.dtype != "<f8")
    if wrong:
        raise CheckpointError(f"{path}: members {wrong} are not float64 (<f8) .npy arrays")
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: {_META} does not hold an object")
    return {m.removesuffix(".npy"): arr for m, arr in arrays.items()}, meta


def restore_into(params: Mapping[str, Tensor], arrays: Mapping[str, np.ndarray]) -> None:
    """Copy loaded arrays into an existing parameter collection.

    Names and shapes must match exactly; anything else means the checkpoint
    belongs to a different model.
    """
    missing = sorted(set(params) - set(arrays))
    extra = sorted(set(arrays) - set(params))
    if missing or extra:
        raise CheckpointError(f"parameter name mismatch: missing={missing} extra={extra}")
    for name, p in params.items():
        arr = arrays[name]
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"parameter '{name}': checkpoint shape {arr.shape} != model shape {p.data.shape}"
            )
        p.data = np.array(arr, dtype=np.float64, order="C")
