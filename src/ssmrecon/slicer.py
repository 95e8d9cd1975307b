"""Planar cross-sections of closed meshes, rasterized into binary masks.

Sections are cut by sagittal (x-normal) planes placed at fractions of a
physical window that is shared by every subject in a dataset, so the masks
preserve absolute organ size. Masks are stored as binary PGM files plus a
JSON stack manifest; externally produced masks can enter the pipeline
through the same files.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sidecar
from .errors import DataError
from .mesh import Plane, TriMesh, validate_closed

STACK_MANIFEST = "stack.json"  # a stack directory's manifest, next to its masks


@dataclass(frozen=True)
class Window:
    """Axis-aligned 3D box (mm) shared by all subjects of a dataset."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64).reshape(3)
        hi = np.asarray(self.hi, dtype=np.float64).reshape(3)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise DataError("window bounds must be finite")
        if not (hi > lo).all():
            raise DataError("window must have positive extent on every axis")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    def plane_at(self, fraction: float) -> Plane:
        return Plane(float(self.lo[0] + fraction * self.extent[0]))

    def as_dict(self) -> dict:
        return {"lo": [float(v) for v in self.lo], "hi": [float(v) for v in self.hi]}

    @staticmethod
    def from_dict(d: dict) -> "Window":
        return Window(np.asarray(d["lo"], dtype=np.float64), np.asarray(d["hi"], dtype=np.float64))


def window_for_population(meshes) -> Window:
    """Bounding box of a mesh population, padded by 10% per axis.

    The y/z extents are expanded to a common size so pixels come out
    isotropic.
    """
    los = np.stack([m.bounds()[0] for m in meshes])
    his = np.stack([m.bounds()[1] for m in meshes])
    lo = los.min(axis=0)
    hi = his.max(axis=0)
    ext = hi - lo
    lo = lo - 0.10 * ext
    hi = hi + 0.10 * ext
    centre = 0.5 * (lo + hi)
    half = 0.5 * max(hi[1] - lo[1], hi[2] - lo[2])
    for ax in (1, 2):
        lo[ax] = centre[ax] - half
        hi[ax] = centre[ax] + half
    return Window(lo, hi)


def check_protocol(offsets, resolution: int) -> tuple:
    """Validate plane offsets and mask resolution; returns the offsets as floats.

    ``offsets`` are 2 or 3 strictly increasing fractions in (0, 1) of the
    window's x extent; ``resolution`` is the square mask side in pixels.
    """
    offs = tuple(float(o) for o in offsets)
    if len(offs) not in (2, 3):
        raise DataError("protocol needs 2 or 3 plane offsets")
    if any(not (0.0 < o < 1.0) for o in offs):
        raise DataError("plane offsets must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(offs, offs[1:])):
        raise DataError("plane offsets must be strictly increasing")
    if not isinstance(resolution, (int, np.integer)):
        raise DataError("resolution must be an integer")
    if resolution < 16:
        raise DataError("resolution must be >= 16")
    return offs


@dataclass(frozen=True)
class SliceProtocol:
    """Where to cut and how finely to rasterize (rules in ``check_protocol``)."""

    offsets: tuple
    window: Window
    resolution: int

    def __post_init__(self):
        object.__setattr__(self, "offsets", check_protocol(self.offsets, self.resolution))

    @property
    def spacing(self) -> tuple:
        """(mm/px in y, mm/px in z) of every mask cut with this protocol."""
        return tuple(float(v) for v in self.window.extent[1:] / self.resolution)

    @property
    def origin(self) -> tuple:
        """The window's (y, z) minimum corner, mm: where pixel (0, 0) sits."""
        return tuple(float(v) for v in self.window.lo[1:])


@dataclass(frozen=True)
class MaskStack:
    """Binary cross-section masks of one subject in the shared window.

    ``masks`` holds 2 or 3 arrays of shape (R, R) with values in {0, 1};
    axis 0 indexes y, axis 1 indexes z, pixel (0, 0) sits at the window's
    (y, z) minimum corner.
    """

    masks: tuple

    def __post_init__(self):
        masks = tuple(map(np.asarray, self.masks))
        if len(masks) not in (2, 3):
            raise DataError("a stack holds 2 or 3 masks")
        r = masks[0].shape
        for m in masks:
            if m.ndim != 2 or m.shape != r or m.shape[0] != m.shape[1]:
                raise DataError("all masks must be square and share one resolution")
            # the values as given: the uint8 cast would wrap 256 to 0 and truncate 0.5 to 0
            if not ((m == 0) | (m == 1)).all():
                raise DataError("masks must be binary (0/1)")
        masks = tuple(np.ascontiguousarray(m, dtype=np.uint8) for m in masks)
        for m in masks:
            m.flags.writeable = False
        object.__setattr__(self, "masks", masks)

    @property
    def resolution(self) -> int:
        return self.masks[0].shape[0]

    def flatten(self) -> np.ndarray:
        """Slice-major then row-major {0,1} vector, the regressor's input layout."""
        return np.concatenate([m.ravel() for m in self.masks], dtype=np.float64)


# ---------------------------------------------------------------------------
# Cross-sections


def cross_section(mesh: TriMesh, plane: Plane) -> list[np.ndarray]:
    """Intersect a closed mesh with an x-normal plane.

    Returns a list of closed loops as (n, 2) arrays of (y, z) coordinates.
    Outer loops wind counter-clockwise for outward-oriented meshes; holes
    wind the other way. Empty list when the plane misses the mesh. Raises
    DataError when a loop does not close, as for an inverted face.
    """
    validate_closed(mesh)
    v = mesh.vertices
    n = len(v)
    s = v[:, 0] - plane.offset
    pos = s >= 0.0  # on-plane vertices count as positive
    tri_pos = pos[mesh.faces]
    f = mesh.faces[tri_pos.any(axis=1) & ~tri_pos.all(axis=1)]
    if not len(f):
        return []

    # the two cut edges of each crossing face, in (ab, bc, ca) order, lower
    # vertex first so both faces of an edge compute its point bit-identically
    g = np.roll(f, -1, axis=1)
    cut = pos[f] != pos[g]
    lo = np.minimum(f, g)[cut].reshape(-1, 2)
    hi = np.maximum(f, g)[cut].reshape(-1, 2)
    t = s[lo] / (s[lo] - s[hi])
    yz = v[lo, 1:] + t[..., None] * (v[hi, 1:] - v[lo, 1:])
    # name each cut point by its vertex when that lies on the plane, else by its edge
    on = s == 0.0
    name = np.where(on[lo], lo, np.where(on[hi], hi, n + lo * n + hi))

    # orient along plane_normal x triangle_normal so loops wind consistently
    normal = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    d = yz[:, 1] - yz[:, 0]
    # (1,0,0) x normal restricted to the (y, z) plane is (-normal_z, normal_y)
    flip = d[:, 0] * -normal[:, 2] + d[:, 1] * normal[:, 1] < 0
    yz[flip] = yz[flip, ::-1]
    name[flip] = name[flip, ::-1]
    keep = name[:, 0] != name[:, 1]  # drops a face touching the plane at one vertex
    yz = yz[keep]
    heads = name[keep, 0].tolist()
    tails = name[keep, 1].tolist()

    # a closed, consistently oriented mesh starts one segment at every name
    # (two at a saddle vertex, where either pairing closes)
    starts: dict[int, list[int]] = {}
    for i, key in enumerate(heads):
        starts.setdefault(key, []).append(i)
    loops = []
    for first in heads:
        if starts[first]:
            chain = [starts[first].pop()]
            while tails[chain[-1]] != first:
                bucket = starts.get(tails[chain[-1]])
                if not bucket:
                    y, z = yz[chain[-1], 1]
                    raise DataError(f"cross-section loop failed to close near (y={y:.6f}, z={z:.6f})")
                chain.append(bucket.pop())
            if len(chain) >= 3:  # shorter chains enclose zero area
                loops.append(yz[chain, 0])
    return loops


def loop_area(loop: np.ndarray) -> float:
    """Signed shoelace area of one loop (positive = counter-clockwise)."""
    y = loop[:, 0]
    z = loop[:, 1]
    return 0.5 * float(np.sum(y * np.roll(z, -1) - np.roll(y, -1) * z))


# ---------------------------------------------------------------------------
# Rasterization


def rasterize(polygons: list[np.ndarray], window_2d, resolution: int) -> np.ndarray:
    """Even-odd fill of loops into a binary (R, R) grid.

    ``window_2d`` is ((y_lo, z_lo), (y_hi, z_hi)). A pixel is on iff an odd
    number of loop edges cross its row at or before its centre, i.e. iff its
    centre is inside the polygon set under the even-odd rule; pixel (0, 0)
    sits at the window's minimum corner. Geometry outside the window is
    clipped silently.
    """
    if resolution < 16:
        raise DataError("resolution must be >= 16")
    (y_lo, z_lo), (y_hi, z_hi) = window_2d
    r = int(resolution)
    y_centres = y_lo + (np.arange(r) + 0.5) * ((y_hi - y_lo) / r)
    z_centres = z_lo + (np.arange(r) + 0.5) * ((z_hi - z_lo) / r)
    a = np.concatenate([np.empty((0, 2)), *polygons])
    b = np.concatenate([np.empty((0, 2)), *(np.roll(loop, -1, axis=0) for loop in polygons)])

    # half-open test: a shared vertex counts once, a horizontal edge never
    yc = y_centres[:, None]
    rows, e = np.nonzero((a[:, 0] <= yc) != (b[:, 0] <= yc))
    t = (y_centres[rows] - a[e, 0]) / (b[e, 0] - a[e, 0])
    cols = np.searchsorted(z_centres, a[e, 1] + t * (b[e, 1] - a[e, 1]), side="left")
    crossings = np.bincount(rows * (r + 1) + cols, minlength=r * (r + 1)).reshape(r, r + 1)
    return (crossings.cumsum(axis=1)[:, :r] & 1).astype(np.uint8)


def make_mask_stack(mesh: TriMesh, protocol: SliceProtocol) -> MaskStack:
    """Cut and rasterize one subject with the dataset's shared protocol."""
    win = protocol.window
    window_2d = ((win.lo[1], win.lo[2]), (win.hi[1], win.hi[2]))
    r = protocol.resolution
    masks = []
    for off in protocol.offsets:
        loops = cross_section(mesh, win.plane_at(off))
        masks.append(rasterize(loops, window_2d, r))
    return MaskStack(tuple(masks))


# ---------------------------------------------------------------------------
# Mask and stack files


def save_mask(mask: np.ndarray, path) -> None:
    """Write a {0,1} mask as binary PGM (P5, maxval 255, values 0/255)."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise DataError("mask must be 2-D")
    if not ((m == 0) | (m == 1)).all():  # before the uint8 cast, as in MaskStack
        raise DataError("mask values must be 0 or 1")
    h, w = m.shape
    pixels = m.astype(np.uint8, copy=False) * np.uint8(255)
    sidecar.write(path, f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


def load_mask(path) -> np.ndarray:
    """Read a binary PGM written by save_mask back to a {0,1} array."""
    raw = Path(path).read_bytes()
    parts = raw.split(maxsplit=4)
    if len(parts) < 4 or parts[0] != b"P5":
        raise DataError(f"{path}: not a binary PGM (P5) file")
    try:
        w, h, maxval = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError as exc:
        raise DataError(f"{path}: malformed PGM header") from exc
    if w < 1 or h < 1:
        raise DataError(f"{path}: PGM width and height must be at least 1, got {w} x {h}")
    if maxval != 255:
        raise DataError(f"{path}: PGM maxval must be 255, got {maxval}")
    header_len = len(raw) - len(parts[4]) if len(parts) == 5 else len(raw)
    data = raw[header_len : header_len + w * h]
    if len(data) != w * h:
        raise DataError(f"{path}: PGM payload truncated ({len(data)} of {w * h} bytes)")
    img = np.frombuffer(data, dtype=np.uint8).reshape(h, w)
    on = img == 255
    if not (on | (img == 0)).all():
        raise DataError(f"{path}: binary masks must be 0 or 255")
    return on.view(np.uint8)


def save_mask_stack(stack: MaskStack, directory, protocol: SliceProtocol) -> Path:
    """Write one PGM per mask plus a JSON manifest that records ``protocol``; returns the manifest path."""
    directory = Path(directory)
    members = []
    for i, mask in enumerate(stack.masks):
        name = f"slice_{i}.pgm"
        save_mask(mask, directory / name)
        members.append(name)
    manifest = {
        "members": members,
        "plane_offsets": list(protocol.offsets),
        "window": protocol.window.as_dict(),
        "spacing": list(protocol.spacing),
        "origin": list(protocol.origin),
    }
    manifest_path = directory / STACK_MANIFEST
    sidecar.write_json(manifest_path, manifest)
    return manifest_path


def load_mask_stack(manifest_path, protocol: SliceProtocol) -> MaskStack:
    """Read a stack manifest and its masks; a stack cut with another protocol is a data error.

    Its mask count, resolution, spacing and origin must be those ``protocol``
    gives, and its plane offsets and window the protocol's where the manifest
    records them (every stack ``save_mask_stack`` writes does).
    """
    manifest_path = Path(manifest_path)
    manifest = sidecar.read_manifest(manifest_path, "stack manifest", ("members", "spacing", "origin"))
    try:
        masks = [load_mask(manifest_path.parent / name) for name in manifest["members"]]
        stack = MaskStack(tuple(masks))
    except (DataError, TypeError, ValueError) as exc:
        raise DataError(f"stack manifest {manifest_path} is malformed: {exc!r}") from exc
    offsets, window = list(protocol.offsets), protocol.window.as_dict()
    for field, found, expected in (
        ("mask count", len(stack.masks), len(protocol.offsets)),
        ("resolution", stack.resolution, protocol.resolution),
        ("spacing", manifest["spacing"], list(protocol.spacing)),
        ("origin", manifest["origin"], list(protocol.origin)),
        ("plane_offsets", manifest.get("plane_offsets", offsets), offsets),
        ("window", manifest.get("window", window), window),
    ):
        if found != expected:
            raise DataError(
                f"mask stack {manifest_path}: {field} {found!r} is not the dataset's {expected!r} "
                f"(cut with another slicing protocol; run slice again)"
            )
    return stack
