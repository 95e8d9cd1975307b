"""Deterministic synthetic organ-scale mesh populations.

Each subject is a subdivided icosphere with a seeded sum of smooth
low-order radial displacement modes, squashed to a liver-like 1.6:1.2:1.0
aspect and scaled so its volume lands at a draw from the configured range.
Displacements stay below half the radius, so every shape remains
star-shaped (hence closed and self-intersection free). Tessellation level
varies per subject so downstream registration is genuinely exercised.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sidecar
from .errors import DataError, NumericalError
from .mesh import Plane, TriMesh, icosphere, save_mesh, signed_volume
from .slicer import cross_section, loop_area

_ASPECT = np.array([1.6, 1.2, 1.0])
_MAX_RETRIES = 10
POPULATION_MANIFEST = "population.json"  # subject ids, ground-truth volumes and seeds, next to the meshes


@dataclass(frozen=True)
class SynthConfig:
    n: int = 20
    seed: int = 0
    mode_count: int = 6
    amplitude: float = 0.10
    volume_range: tuple = (800.0, 1600.0)
    jitter_levels: tuple = (3,)  # subdivision levels drawn per subject

    def __post_init__(self):
        if self.n < 2:
            raise DataError("population size must be >= 2")
        if not (0.0 <= self.amplitude < 0.5):
            raise DataError("amplitude must lie in [0, 0.5)")
        lo, hi = self.volume_range
        if not (0.0 < lo < hi):
            raise DataError("volume range must be positive and increasing")
        if not self.jitter_levels:
            raise DataError("jitter level set must be non-empty")
        object.__setattr__(self, "volume_range", (float(lo), float(hi)))
        object.__setattr__(self, "jitter_levels", tuple(int(v) for v in self.jitter_levels))


def _radial_modes(rng: np.random.Generator, count: int, amplitude: float, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Sum of products of low-order (<= 3) trig functions, bounded by amplitude."""
    if count == 0 or amplitude == 0.0:
        return np.zeros_like(theta)
    p = rng.integers(0, 4, size=count)
    q = rng.integers(0, 4, size=count)
    psi = rng.uniform(0.0, 2.0 * np.pi, size=count)
    chi = rng.uniform(0.0, 2.0 * np.pi, size=count)
    raw = rng.uniform(-1.0, 1.0, size=count)
    coeff = amplitude * raw / (np.abs(raw).sum() + 1e-12)
    total = np.zeros_like(theta)
    for m in range(count):
        factor = np.cos(p[m] * theta + psi[m])
        if q[m] > 0:
            factor = factor * np.sin(theta) ** q[m] * np.cos(q[m] * phi + chi[m])
        else:
            factor = factor * np.cos(chi[m])
        total += coeff[m] * factor
    return total


def _sections_look_sane(mesh: TriMesh) -> bool:
    """Reject a hole in a section: every section loop must have positive area.

    The shape is a radial graph over the icosphere's faces, so it cannot
    self-intersect; a loop of non-positive area is a hole.
    """
    lo, hi = mesh.bounds()
    for f in (0.3, 0.5, 0.7):
        loops = cross_section(mesh, Plane(float(lo[0] + f * (hi[0] - lo[0]))))
        if any(loop_area(loop) <= 0 for loop in loops):
            return False
    return True


def _generate_subject(cfg: SynthConfig, index: int) -> TriMesh:
    rng = np.random.default_rng(cfg.seed + index)
    level = cfg.jitter_levels[int(rng.integers(len(cfg.jitter_levels)))]
    target_volume = rng.uniform(*cfg.volume_range)

    # the sphere and its angles draw nothing from rng: each retry redraws only the modes
    base = icosphere(1.0, level)
    v = base.vertices
    radius = np.linalg.norm(v, axis=1)
    theta = np.arccos(np.clip(v[:, 2] / radius, -1.0, 1.0))
    phi = np.arctan2(v[:, 1], v[:, 0])
    amplitude = cfg.amplitude
    for _ in range(_MAX_RETRIES):
        r_new = 1.0 + _radial_modes(rng, cfg.mode_count, amplitude, theta, phi)
        mesh = TriMesh(v * r_new[:, None] * _ASPECT, base.faces)
        v0 = signed_volume(mesh)
        scale = (target_volume / v0) ** (1.0 / 3.0)
        mesh = mesh.with_vertices(mesh.vertices * scale)
        if _sections_look_sane(mesh):
            return mesh
        amplitude *= 0.5
    raise NumericalError(f"subject {index}: could not generate a sane mesh in {_MAX_RETRIES} tries")


def generate_population(cfg: SynthConfig) -> tuple[list[TriMesh], list[float]]:
    """Generate ``cfg.n`` meshes and their ground-truth volumes (cm^3)."""
    meshes = [_generate_subject(cfg, i) for i in range(cfg.n)]
    volumes = [signed_volume(m) for m in meshes]
    return meshes, volumes


def subject_id(index: int) -> str:
    return f"s{index:03d}"


def write_population(meshes: list[TriMesh], volumes: list[float], cfg: SynthConfig, directory) -> Path:
    """Emit one OBJ per subject plus a ground-truth JSON manifest."""
    directory = Path(directory)
    subjects = {}
    for i, (mesh, vol) in enumerate(zip(meshes, volumes)):
        sid = subject_id(i)
        save_mesh(mesh, directory / f"{sid}.obj")
        subjects[sid] = {"volume_cm3": vol, "seed": cfg.seed + i}
    manifest_path = directory / POPULATION_MANIFEST
    sidecar.write_json(manifest_path, {"seed": cfg.seed, "subjects": subjects})
    return manifest_path


def check_subject_id(sid: str) -> str:
    """``sid`` if it is one plain path component, else DataError.

    Ids name files and directories (``<population_dir>/<id>.obj``,
    ``<masks_dir>/<id>/``), so an id like ``../x`` would reach outside them.
    """
    if sid in ("", ".", "..") or "/" in sid or "\\" in sid or Path(sid).name != sid:
        raise DataError(f"subject id {sid!r} is not one plain path component")
    return sid


def load_population_manifest(directory) -> dict:
    """The population manifest in ``directory``; its ``subjects`` must map plain ids to entries."""
    path = Path(directory) / POPULATION_MANIFEST
    manifest = sidecar.read_manifest(path, "population manifest", ("subjects",))
    subjects = manifest["subjects"]
    if not isinstance(subjects, dict):
        raise DataError(f"population manifest {path}: 'subjects' must be an object, got {type(subjects).__name__}")
    try:
        for sid in subjects:
            check_subject_id(sid)
    except DataError as exc:
        raise DataError(f"population manifest {path}: {exc}") from exc
    return manifest
