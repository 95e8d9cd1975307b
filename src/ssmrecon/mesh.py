"""Triangle meshes: representation, Wavefront OBJ I/O, volume and sampling.

All coordinates are millimetres. Volumes are reported in cubic centimetres;
the mm^3 -> cm^3 conversion lives in a single constant below.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import itemgetter

import numpy as np

from . import sidecar
from .errors import DataError

MM3_PER_CM3 = 1000.0


@dataclass(frozen=True)
class TriMesh:
    """Immutable triangle mesh.

    Attributes
    ----------
    vertices : (M, 3) float64 array
        Vertex positions in millimetres.
    faces : (F, 3) int array
        Vertex indices per triangle, counter-clockwise when viewed from
        outside for an outward-oriented mesh.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        f = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise DataError(f"vertices must be an (M, 3) array, got shape {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise DataError(f"faces must be an (F, 3) array, got shape {f.shape}")
        if not len(f):
            raise DataError("mesh has no faces")
        check_face_indices(f, len(v))
        degenerate = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])
        if degenerate.any():
            raise DataError(f"degenerate face (repeated vertex index) at row {int(np.argmax(degenerate))}")
        if not np.isfinite(v).all():
            raise DataError("non-finite vertex coordinate")
        v.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def triangle_corners(self) -> np.ndarray:
        """Return an (F, 3, 3) array of triangle corner coordinates."""
        return self.vertices[self.faces]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) corners of the axis-aligned bounding box."""
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def centroid(self) -> np.ndarray:
        """Mean of the vertex positions (not the volumetric centroid)."""
        return self.vertices.mean(axis=0)

    def with_vertices(self, vertices: np.ndarray) -> "TriMesh":
        """Same topology, new vertex positions; a closedness result already found is kept."""
        mesh = TriMesh(vertices, self.faces)
        if "_boundary" in self.__dict__:
            mesh.__dict__["_boundary"] = self._boundary
        return mesh

    @cached_property
    def _boundary(self) -> np.ndarray:
        """``boundary_edges(self)``, found once: it depends only on the immutable faces."""
        bad = boundary_edges(self)
        bad.flags.writeable = False
        return bad

    def face_areas(self) -> np.ndarray:
        tri = self.triangle_corners()
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)

    def same_topology(self, other: "TriMesh") -> bool:
        return self.n_vertices == other.n_vertices and np.array_equal(self.faces, other.faces)


def check_face_indices(faces: np.ndarray, n_vertices: int) -> None:
    """Raise DataError unless every index in ``faces`` lies in [0, n_vertices)."""
    if faces.min() < 0 or faces.max() >= n_vertices:
        raise DataError(
            f"face index out of range: indices span [{faces.min()}, {faces.max()}] for {n_vertices} vertices"
        )


@dataclass(frozen=True)
class Plane:
    """Axis-aligned cutting plane with normal along +x, at ``offset`` mm."""

    offset: float

    def __post_init__(self):
        if not np.isfinite(self.offset):
            raise DataError("plane offset must be finite")


# ---------------------------------------------------------------------------
# Wavefront OBJ I/O


def load_mesh(path) -> TriMesh:
    """Read an ASCII Wavefront OBJ file into a TriMesh.

    Only ``v`` and ``f`` records are used; normals, texture coordinates,
    comments and grouping statements are ignored. A record is a line split on
    whitespace (``str.split``); a ``v`` record takes its first three
    coordinates, each as spelled for Python's ``float``. Each ``f`` index is
    the part of its token before any ``/``, as spelled for ``int``; indices
    are 1-based, negative (relative) indices count back from the vertices read
    so far, and faces with more than three vertices are fan-triangulated. A
    malformed file raises DataError naming its first bad line.

    The grammar, meshes and messages are exactly those of
    ``load_mesh_by_lines`` in tests/oracles.py, which reads one line at a
    time. Here the file is parsed as whole arrays: each line is split once,
    into one list of every token that keeps where each line's run ends; every
    coordinate goes through one ``map(float)`` and every index through one
    ``map(int)``, and relative indices, range checks and fans are resolved
    with array operations.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()  # universal newlines: "\n" ends each line that iterating over fh gives
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    tokens = []  # every line's tokens in order; its length after each line is where that line's run ends
    ends = np.fromiter(map(len, map(tokens.__iadd__, map(str.split, text.split("\n")))), dtype=np.int64)
    n_parts = np.diff(ends, prepend=0)

    # records: the non-blank lines, each from its first token
    records = np.flatnonzero(n_parts)
    lines = records + 1
    n_parts = n_parts[records]
    first = ends[records] - n_parts
    tag = np.array(list(map(tokens.__getitem__, first.tolist())), dtype=object)
    is_v = tag == "v"
    is_f = tag == "f"
    errors = []  # (line, message, cause) of the first failure of each kind

    short = is_v & (n_parts < 4)
    if short.any():
        errors.append((lines[short][0], "vertex record needs 3 coordinates", None))
    good = is_v & ~short
    in_vertex = np.zeros(len(tokens), dtype=bool)
    in_vertex[(first[good][:, None] + np.arange(1, 4)).ravel()] = True
    coords, exc = _parse(float, compress(tokens, in_vertex.tolist()), np.float64)
    if exc is not None:
        errors.append((lines[good][len(coords) // 3], f"bad vertex coordinate: {exc}", exc))

    short = is_f & (n_parts < 4)
    if short.any():
        errors.append((lines[short][0], "face record needs at least 3 indices", None))
    good = is_f & ~short
    in_face = np.repeat(good, n_parts)
    in_face[first] = False
    at = np.flatnonzero(in_face)
    heads = compress(tokens, in_face.tolist())
    if "/" in text:  # each index is the part of its token before any "/"
        heads = [token.partition("/")[0] for token in heads]
    idx, exc = _parse(int, heads, np.int64)
    corners = n_parts[good] - 1
    done = np.repeat(np.cumsum(is_v)[good], corners)[: len(idx)]  # vertices read before each index
    idx = np.where(idx < 0, done + 1 + idx, idx)
    bad = (idx < 1) | (idx > done)
    if bad.any():
        t = int(np.argmax(bad))
        message = f"face index {tokens[at[t]]} out of range (file has {done[t]} vertices so far)"
        errors.append((np.repeat(lines[good], corners)[t], message, None))
    elif exc is not None:
        t = len(idx)
        errors.append((np.repeat(lines[good], corners)[t], f"bad face index {tokens[at[t]]!r}", exc))

    if errors:
        line, message, cause = min(errors, key=itemgetter(0))
        raise DataError(f"{path}:{line}: {message}") from cause

    # the fan (0, j, j + 1), j = 1 .. corners - 2, of each record's indices
    n_tri = corners - 2
    zero = np.repeat(np.cumsum(corners) - corners, n_tri)
    j = zero + np.arange(len(zero)) - np.repeat(np.cumsum(n_tri) - n_tri, n_tri) + 1
    faces = np.stack([idx[zero], idx[j], idx[j + 1]], axis=1) - 1
    try:
        return TriMesh(coords.reshape(-1, 3), faces)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _parse(convert, tokens, dtype) -> tuple[np.ndarray, ValueError | None]:
    """``convert`` of each token in order, up to the first that raises ValueError, and that error.

    Integers beyond int64 are clipped to +-2**62: out of range for any mesh.
    """
    values = []
    error = None
    try:
        values.extend(map(convert, tokens))  # what was converted before a failure stays
    except ValueError as exc:
        error = exc
    try:
        return np.array(values, dtype=dtype), error
    except OverflowError:
        return np.clip(np.array(values, dtype=object), -(2**62), 2**62).astype(dtype), error


def save_mesh(mesh: TriMesh, path) -> None:
    """Write a TriMesh as ASCII OBJ.

    Coordinates are written with ``repr`` so a save/load round trip
    reproduces vertices bit-exactly. Each record kind is one ``%`` format over
    all its rows. Formatting ``float.__repr__`` strings with ``%s`` writes the
    same bytes but is no faster: ``float.__repr__`` itself is nearly all of
    the time, and calling it through the slot wrapper cost 1-5% more than
    ``%r`` on a 2,562-vertex mesh (CPython 3.11).
    """
    text = ("v %r %r %r\n" * mesh.n_vertices) % tuple(mesh.vertices.ravel().tolist())
    text += ("f %d %d %d\n" * mesh.n_faces) % tuple((mesh.faces + 1).ravel().tolist())
    sidecar.write(path, text.encode("ascii"))


# ---------------------------------------------------------------------------
# Closedness


def boundary_edges(mesh: TriMesh) -> np.ndarray:
    """Undirected edges not shared by exactly two faces, as an (n, 2) array."""
    f = mesh.faces
    g = np.roll(f, -1, axis=1)  # the edges (a, b), (b, c), (c, a) of each face
    # one int64 key per edge sorts like its (lo, hi) row; one in-place sort groups equal edges
    n = mesh.n_vertices
    keys = (np.minimum(f, g) * n + np.maximum(f, g)).ravel()
    keys.sort()
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are >= 0, so a run starts at 0
    bad = keys[starts[np.diff(starts, append=len(keys)) != 2]]
    return np.stack([bad // n, bad % n], axis=1)


def validate_closed(mesh: TriMesh) -> None:
    """Raise DataError naming an unmatched edge if the mesh is not closed."""
    bad = mesh._boundary
    if len(bad):
        a, b = int(bad[0, 0]), int(bad[0, 1])
        raise DataError(f"mesh is not closed: edge ({a}, {b}) is not shared by exactly two faces")


# ---------------------------------------------------------------------------
# Volume


def signed_volume(mesh: TriMesh) -> float:
    """Signed enclosed volume in cm^3 via the divergence theorem.

    Positive for an outward-oriented closed mesh, negative for an inward one.
    Raises DataError if the mesh is open.
    """
    validate_closed(mesh)
    tri = mesh.triangle_corners()
    # det[v0 v1 v2] / 6 summed over faces
    det = np.einsum("ij,ij->i", tri[:, 0], np.cross(tri[:, 1], tri[:, 2]))
    return float(det.sum() / 6.0) / MM3_PER_CM3


# ---------------------------------------------------------------------------
# Surface sampling


def surface_samples(mesh: TriMesh, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` area-uniform points on the mesh surface, deterministic in ``seed``."""
    if n < 1:
        raise DataError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    areas = mesh.face_areas()
    total = areas.sum()
    if total <= 0:
        raise DataError("mesh has zero surface area")
    face_idx = rng.choice(len(areas), size=n, p=areas / total)
    tri = mesh.vertices[mesh.faces[face_idx]]
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    return tri[:, 0] + u[:, None] * (tri[:, 1] - tri[:, 0]) + v[:, None] * (tri[:, 2] - tri[:, 0])


# ---------------------------------------------------------------------------
# Primitives (test fixtures and synthetic data building blocks)

_CUBE_FACES = np.array(
    [
        [0, 2, 1], [0, 3, 2],  # z = lo
        [4, 5, 6], [4, 6, 7],  # z = hi
        [0, 1, 5], [0, 5, 4],  # y = lo
        [2, 3, 7], [2, 7, 6],  # y = hi
        [0, 4, 7], [0, 7, 3],  # x = lo
        [1, 2, 6], [1, 6, 5],  # x = hi
    ],
    dtype=np.int64,
)


def cube(edge: float = 1.0, origin=(0.0, 0.0, 0.0)) -> TriMesh:
    """Axis-aligned cube with outward orientation, min corner at ``origin``."""
    o = np.asarray(origin, dtype=np.float64)
    corners = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=np.float64,
    )
    return TriMesh(o + edge * corners, _CUBE_FACES)


def icosphere(radius: float = 1.0, subdivisions: int = 2) -> TriMesh:
    """Unit icosahedron subdivided ``subdivisions`` times, projected to a sphere.

    Each level splits every face into four at its edge midpoints, found from
    one table of the level's edges. The vertices of the previous level come
    first, in their order; then the new midpoints, in the order in which
    their edges first occur going through the faces.
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    for _ in range(subdivisions):
        # edges (a, b), (b, c), (c, a) of each face in turn; a new midpoint is numbered
        # where its edge first occurs, so vertices and faces come out in a fixed order
        edges = np.stack([faces, np.roll(faces, -1, axis=1)], axis=2).reshape(-1, 2)
        keys = edges.min(axis=1) * len(verts) + edges.max(axis=1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        number = np.empty_like(order)
        number[order] = np.arange(len(verts), len(verts) + len(order))
        split = edges[np.sort(first)]
        m = verts[split[:, 0]] + verts[split[:, 1]]
        # the length of each row as the 1-D norm gives it (BLAS dot), bit for bit
        verts = np.concatenate([verts, m / np.sqrt(np.vecdot(m, m))[:, None]])
        ab, bc, ca = number[inverse].reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return TriMesh(radius * verts, faces)
