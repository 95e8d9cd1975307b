"""JSON manifest + little-endian float64 binary sidecar.

Shape spaces (``<stem>.ssm.json`` / ``.ssm.bin``) and regressor weights
(``<stem>.mlp.json`` / ``.mlp.bin``) share this scheme. The manifest holds
``format_version``, the owner's header fields, ``dtype`` and, under
``payload``, the byte offset and value count of each array in the sidecar.

Every file the toolkit writes goes through `write` or `save`: each writer
fills a temp file of its own next to the target and renames it into place,
so a crash never leaves a torn file, two writers of one path leave one
writer's complete bytes, and a process still mapping the old payload keeps
reading the old bytes. `save` holds one lock across its two renames, so
within a process the last writer of a stem wins both files; two processes
saving one stem at once can still leave a pair from different writers,
which `load` rejects when their sizes differ. The payload is read through one read-only memory
map; loaded arrays are views into it, not copies. `read_manifest` reads
these manifests and the toolkit's other JSON manifests alike.
"""
from __future__ import annotations

import json
import math
import os
import re
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError

FORMAT_VERSION = 1
_DTYPE = "<f8"
_ITEM = 8
_SAVE_LOCK = threading.Lock()  # one `save` at a time, so the last writer of a stem wins both files


def _paths(path, kind: str) -> tuple[Path, Path]:
    """(manifest, payload) for a stem or either file; ``kind`` is "ssm" or "mlp"."""
    p = Path(path)
    name = re.sub(rf"\.{kind}(\.json|\.bin)?$", "", p.name)
    return p.with_name(f"{name}.{kind}.json"), p.with_name(f"{name}.{kind}.bin")


@contextmanager
def _replacing(path: Path):
    """Binary file handle on ``<path>.<random>.tmp``, renamed over ``path`` only on success.

    Each writer gets a temp file of its own (``"xb"`` never shares one, and
    gives the mode a plain `open` gives); a missing parent directory is made.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write(path, data: bytes) -> None:
    """Replace the file at ``path`` with ``data`` in one rename (see `_replacing`)."""
    with _replacing(Path(path)) as fh:
        fh.write(data)


def read_manifest(path, label: str, keys=()) -> dict:
    """The JSON object in ``path``, which must hold each of ``keys``.

    A file that cannot be read, is not UTF-8, is not JSON or lacks a key
    raises DataError naming the ``label``, the file and the key.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read {label} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{label} {path} is not a JSON object")
    for key in keys:
        if key not in doc:
            raise DataError(f"{label} {path} has no {key!r} key")
    return doc


def save(path, kind: str, header: dict, arrays: list[tuple[str, np.ndarray]]) -> tuple[Path, Path]:
    """Write ``arrays`` in payload order, each row-major, and the manifest."""
    manifest_path, payload_path = _paths(path, kind)
    offsets = {}
    cursor = 0
    for name, arr in arrays:
        offsets[name] = {"offset": cursor, "count": int(arr.size)}
        cursor += _ITEM * arr.size
    manifest = {"format_version": FORMAT_VERSION, **header, "payload": offsets, "dtype": _DTYPE}
    with _SAVE_LOCK:
        with _replacing(payload_path) as fh:
            for _, arr in arrays:
                np.ascontiguousarray(arr, dtype=_DTYPE).tofile(fh)
        write(manifest_path, json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    return manifest_path, payload_path


def load(path, kind: str, label: str, shapes, keys=()) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a manifest/sidecar pair written by ``save``.

    ``shapes(manifest)`` gives the row-major shape each array must have, and
    the manifest must hold each header field in ``keys``.
    Returns the manifest and read-only float64 views into the mapped payload.
    Fails loudly (no partial object) on a version mismatch, counts that
    disagree with the dimensions, or a payload of the wrong size.
    """
    manifest_path, payload_path = _paths(path, kind)
    manifest = read_manifest(manifest_path, f"{label} manifest", keys)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"unsupported {label} format_version {manifest.get('format_version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        expected = shapes(manifest)
        payload = manifest["payload"]
        layout = {
            name: (int(payload[name]["offset"]), int(payload[name]["count"]))
            for name in expected
            if name in payload
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{label} manifest {manifest_path} is malformed: {exc!r}") from exc
    for name, shape in expected.items():
        held = layout.get(name, (0, None))[1]
        if held != math.prod(shape):
            raise DataError(
                f"{label} manifest inconsistent: {name!r} holds {held} values, "
                f"dimensions require {math.prod(shape)}"
            )
    total = _ITEM * sum(count for _, count in layout.values())
    try:
        size = os.stat(payload_path).st_size
    except OSError as exc:
        raise DataError(f"cannot read {label} payload {payload_path}: {exc}") from exc
    if size != total:
        raise DataError(f"{label} payload {payload_path} is {size} bytes, expected {total} (truncated or stale)")
    for name, (offset, count) in layout.items():
        if offset < 0 or offset % _ITEM or offset + _ITEM * count > total:
            raise DataError(f"{label} payload slice for {name!r} out of bounds")
    try:
        raw = np.asarray(np.memmap(payload_path, dtype=_DTYPE, mode="r", shape=(total // _ITEM,)))
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot map {label} payload {payload_path}: {exc}") from exc
    views = {
        name: raw[offset // _ITEM : offset // _ITEM + count].reshape(expected[name])
        for name, (offset, count) in layout.items()
    }
    return manifest, views
