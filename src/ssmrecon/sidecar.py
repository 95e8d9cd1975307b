"""JSON manifest + little-endian float64 binary sidecar.

Shape spaces (``<stem>.ssm.json`` / ``.ssm.bin``) and regressor weights
(``<stem>.mlp.json`` / ``.mlp.bin``) share this scheme. The manifest holds
``format_version``, the owner's header fields, ``dtype`` and, under
``payload``, the byte offset and value count of each array in the sidecar.

Every JSON file the toolkit writes is stamped with ``format_version`` by
`write_json`, and `read_manifest` (`decode` for a pair's manifest), which
reads them all back, rejects any other version.
Every file the toolkit writes goes through `write` or `save`: each writer
fills a temp file of its own next to the target and renames it into place,
so a crash never leaves a torn file, two writers of one path leave one
writer's complete bytes, and a process still mapping the old payload keeps
reading the old bytes. `save` holds one lock across its two renames, so
within a process the last writer of a stem wins both files; two processes
saving one stem at once can still leave a pair from different writers,
which the readers reject when their sizes differ.

A pair is read back in one of two ways, and `decode` checks it either way.
`load` memory-maps the payload read-only, and is how the regressor weights
are read, checked afresh on every load. `read` takes both files whole as
bytes, which `shape_space.load_ssm` keeps as the key of its one-slot memo, so
a repeat load of identical bytes returns the space already checked. Loaded
arrays are read-only views into the map or the bytes, not copies.
"""
from __future__ import annotations

import json
import math
import mmap
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


def write_json(path, doc: dict) -> None:
    """Replace the file at ``path`` with ``doc`` plus ``format_version``, as sorted compact UTF-8 JSON."""
    stamped = {**doc, "format_version": FORMAT_VERSION}
    write(path, json.dumps(stamped, sort_keys=True, separators=(",", ":")).encode("utf-8"))


def _read(path, label: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {label} {path}: {exc}") from exc


def read_manifest(path, label: str, keys=()) -> dict:
    """The JSON object in ``path``, of this ``format_version`` and holding each of ``keys``.

    A file that cannot be read, is not UTF-8, is not JSON, has another
    ``format_version`` or lacks a key raises DataError naming the ``label``,
    the file and the version or key.
    """
    return _parse_manifest(_read(path, label), path, label, keys)


def _parse_manifest(data: bytes, path, label: str, keys) -> dict:
    """`read_manifest` of a file that held ``data``."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read {label} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{label} {path} is not a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"{label} {path} has format_version {doc.get('format_version')!r}, expected {FORMAT_VERSION}"
        )
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
    with _SAVE_LOCK:
        with _replacing(payload_path) as fh:
            for _, arr in arrays:
                np.ascontiguousarray(arr, dtype=_DTYPE).tofile(fh)
        write_json(manifest_path, {**header, "payload": offsets, "dtype": _DTYPE})
    return manifest_path, payload_path


def read(path, kind: str, label: str) -> tuple[bytes, bytes]:
    """The manifest and the payload of a pair written by ``save``, each read whole as bytes, unchecked."""
    manifest_path, payload_path = _paths(path, kind)
    return _read(manifest_path, f"{label} manifest"), _read(payload_path, f"{label} payload")


def load(path, kind: str, label: str, shapes, keys=()) -> tuple[dict, dict[str, np.ndarray]]:
    """`decode` of a pair written by ``save``, with its payload memory-mapped."""
    manifest_path, payload_path = _paths(path, kind)
    manifest_bytes = _read(manifest_path, f"{label} manifest")
    try:
        with open(payload_path, "rb") as fh:  # the map outlives the descriptor; an empty file cannot be mapped
            size = os.fstat(fh.fileno()).st_size
            buffer = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if size else b""
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {label} payload {payload_path}: {exc}") from exc
    return decode(path, kind, label, manifest_bytes, buffer, shapes, keys)


def decode(path, kind: str, label: str, manifest_bytes: bytes, buffer, shapes, keys=()) -> tuple[dict, dict]:
    """Check a pair written by ``save``, given its manifest bytes and a buffer holding its payload.

    ``path`` names the pair in errors. ``shapes(manifest)`` gives the
    row-major shape each array must have, and the manifest must hold each
    header field in ``keys``. Returns the manifest and read-only float64
    views into ``buffer``. Fails loudly (no partial object) on a version
    mismatch, counts that disagree with the dimensions, or a payload of the
    wrong size.
    """
    manifest_path, payload_path = _paths(path, kind)
    manifest = _parse_manifest(manifest_bytes, manifest_path, f"{label} manifest", keys)
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
    if len(buffer) != total:
        raise DataError(f"{label} payload {payload_path} is {len(buffer)} bytes, expected {total} (truncated or stale)")
    for name, (offset, count) in layout.items():
        if offset < 0 or offset % _ITEM or offset + _ITEM * count > total:
            raise DataError(f"{label} payload slice for {name!r} out of bounds")
    raw = np.frombuffer(buffer, dtype=_DTYPE)
    views = {
        name: raw[offset // _ITEM : offset // _ITEM + count].reshape(expected[name])
        for name, (offset, count) in layout.items()
    }
    return manifest, views
