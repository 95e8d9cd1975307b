"""PCA shape space over an aligned, same-topology mesh population.

A population of N meshes with M shared vertices is flattened to an
N x 3M matrix, centred on its mean row, and decomposed with a thin SVD.
The space keeps the mean, the first K right-singular vectors and the
per-component score spread, so shape parameters are dimensionless
standardized scores throughout the toolkit.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sidecar
from .errors import DataError, NumericalError
from .mesh import TriMesh

# Score scales use the population std (divisor N): with centred rows the
# k-th singular value satisfies sigma_k = s_k / sqrt(N).


@dataclass(frozen=True)
class ShapeSpace:
    """Mean shape plus orthonormal variation directions.

    Attributes
    ----------
    mean : (3M,) float64
        Flattened mean shape (x0, y0, z0, x1, ...), millimetres.
    components : (3M, K) float64
        Orthonormal columns, one per retained mode.
    score_scale : (K,) float64
        Std of the training scores along each mode (divisor N), > 0 and
        non-increasing.
    faces : (F, 3) int array of the reference topology.
    n_population : int
        Number of training meshes.
    """

    mean: np.ndarray
    components: np.ndarray
    score_scale: np.ndarray
    faces: np.ndarray
    n_population: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).ravel()
        comp = np.asarray(self.components, dtype=np.float64)
        scale = np.asarray(self.score_scale, dtype=np.float64).ravel()
        faces = np.asarray(self.faces, dtype=np.int64)
        if mean.size % 3:
            raise DataError("mean length must be a multiple of 3")
        if faces.ndim != 2 or faces.shape[1] != 3 or len(faces) < 1:
            raise DataError(f"faces must be an (F, 3) array with F >= 1, got shape {faces.shape}")
        template = TriMesh(mean.reshape(-1, 3), faces)  # checks the faces and that the mean is finite
        if comp.shape != (mean.size, scale.size):
            raise DataError(
                f"component matrix shape {comp.shape} inconsistent with mean ({mean.size}) "
                f"and score scales ({scale.size})"
            )
        if scale.size == 0:
            raise DataError("at least one component is required")
        if scale.size > max(self.n_population - 1, 0):
            raise DataError("K must be <= N - 1")
        if not (scale > 0).all():
            raise NumericalError("score scales must be positive")
        if (np.diff(scale) > 1e-12 * scale[0]).any():
            raise NumericalError("score scales must be non-increasing")
        gram = comp.T @ comp
        if not np.allclose(gram, np.eye(scale.size), atol=1e-9):
            raise NumericalError("components are not orthonormal")
        for arr in (mean, comp, scale):
            arr.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comp)
        object.__setattr__(self, "score_scale", scale)
        object.__setattr__(self, "faces", template.faces)
        object.__setattr__(self, "_mean_mesh", template)

    @property
    def n_vertices(self) -> int:
        return self.mean.size // 3

    @property
    def n_components(self) -> int:
        return self.score_scale.size

    def mean_mesh(self) -> TriMesh:
        """The mean shape, one mesh per space: every reconstruction shares its topology values."""
        return self._mean_mesh


def build_ssm(population: list[TriMesh], n_components: int) -> ShapeSpace:
    """Fit a ShapeSpace to an aligned population.

    The population rows are centred on their mean before the SVD; adding the
    mean back at reconstruction time is only consistent with centred PCA.
    Component signs are fixed so the largest-magnitude entry of each column
    is positive, making builds deterministic across SVD backends.
    """
    if len(population) < 2:
        raise DataError("need at least 2 meshes to build a shape space")
    ref = population[0]
    for m in population[1:]:
        if not ref.same_topology(m):
            raise DataError("population topology mismatch")
    n = len(population)
    if n_components > n - 1:
        raise DataError(f"K={n_components} too large for population of {n} (max {n - 1})")
    if n_components < 1:
        raise DataError("K must be >= 1")

    rows = np.stack([m.vertices.ravel() for m in population])
    mean = rows.mean(axis=0)
    centred = rows - mean
    _, sing, vt = np.linalg.svd(centred, full_matrices=False)

    # floor scaled to the shape itself, so identical populations whose only
    # "variance" is mean-rounding noise are caught
    floor = 1e-10 * max(1.0, float(np.linalg.norm(mean)))
    if sing.size == 0 or not (sing[:n_components] > floor).all():
        raise NumericalError(
            "degenerate population: not enough shape variation for "
            f"{n_components} components"
        )
    components = vt[:n_components].T.copy()
    # deterministic sign: largest-magnitude entry of each column positive
    for k in range(n_components):
        col = components[:, k]
        if col[np.argmax(np.abs(col))] < 0:
            components[:, k] = -col
    scores = centred @ components
    score_scale = scores.std(axis=0)  # divisor N, matches sigma_k / sqrt(N)
    return ShapeSpace(mean, components, score_scale, ref.faces, n)


def project(space: ShapeSpace, mesh: TriMesh) -> np.ndarray:
    """Standardized shape parameters of a reference-topology mesh."""
    if mesh.n_vertices != space.n_vertices or not np.array_equal(mesh.faces, space.faces):
        raise DataError("mesh does not have the shape space's reference topology")
    centred = mesh.vertices.ravel() - space.mean
    return (centred @ space.components) / space.score_scale


def reconstruct(space: ShapeSpace, params: np.ndarray) -> TriMesh:
    """Mesh for the given standardized shape parameters.

    vertices = mean + sum_k component_k * scale_k * alpha_k, reshaped to
    the reference topology.
    """
    alpha = np.asarray(params, dtype=np.float64).ravel()
    if alpha.size != space.n_components:
        raise DataError(f"expected {space.n_components} shape parameters, got {alpha.size}")
    if not np.isfinite(alpha).all():
        raise DataError("shape parameters must be finite")
    flat = space.mean + space.components @ (space.score_scale * alpha)
    return space.mean_mesh().with_vertices(flat.reshape(-1, 3))


# ---------------------------------------------------------------------------
# Persistence: JSON manifest + little-endian float64 sidecar (see sidecar.py),
# <stem>.ssm.json / <stem>.ssm.bin. The sidecar holds mean, components
# (column-major, i.e. the row-major (K, 3M) transpose) and score scales.


def save_ssm(space: ShapeSpace, path) -> tuple[Path, Path]:
    """Write the manifest/sidecar pair; ``path`` may be a stem or either file."""
    header = {
        "n_vertices": space.n_vertices,
        "n_population": space.n_population,
        "n_components": space.n_components,
        "faces": space.faces.tolist(),
    }
    arrays = [("mean", space.mean), ("components", space.components.T), ("score_scale", space.score_scale)]
    return sidecar.save(path, "ssm", header, arrays)


def _ssm_shapes(manifest: dict) -> dict:
    m, k = int(manifest["n_vertices"]), int(manifest["n_components"])
    return {"mean": (3 * m,), "components": (k, 3 * m), "score_scale": (k,)}


# The last shape space loaded, with the manifest and payload bytes it was built
# from. Only a load that passed every check fills it.
_last_load: tuple[bytes, bytes, ShapeSpace] | None = None


def load_ssm(path) -> ShapeSpace:
    """Load a manifest/sidecar pair written by save_ssm.

    Fails loudly (no partial object) on version mismatch, a manifest without
    ``faces`` or ``n_population`` or with values no shape space accepts,
    truncated payload or manifest/payload dimension inconsistencies. Both
    files are read whole; the arrays are read-only views of the payload bytes.
    A load of the same bytes as the last good load, under any path, returns
    that same (immutable) space without decoding them again. That saves work
    only when one process loads a space more than once, as a script calling
    `pipeline.cmd_reconstruct` once per stack does; a CLI command loads once.
    """
    global _last_load
    manifest_bytes, payload = sidecar.read(path, "ssm", "shape space")
    last = _last_load
    if last is not None and last[0] == manifest_bytes and last[1] == payload:
        return last[2]
    manifest, arrays = sidecar.decode(
        path, "ssm", "shape space", manifest_bytes, payload, _ssm_shapes, ("faces", "n_population")
    )
    try:
        space = ShapeSpace(
            arrays["mean"],
            arrays["components"].T,
            arrays["score_scale"],
            manifest["faces"],
            int(manifest["n_population"]),
        )
    except (DataError, TypeError, ValueError) as exc:
        raise DataError(f"shape space manifest {sidecar._paths(path, 'ssm')[0]} is malformed: {exc!r}") from exc
    _last_load = (manifest_bytes, payload, space)
    return space
