"""The shared manifest + sidecar I/O, and the mesh and query fast paths."""
import errno
import io
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import closest_points_brute
from ssmrecon import mesh as M
from ssmrecon import sidecar
from ssmrecon.errors import DataError
from ssmrecon.regressor import MlpParams, init_params, load_weights, save_weights
from ssmrecon.shape_space import build_ssm, load_ssm, save_ssm
from ssmrecon.slicer import MaskStack, SliceProtocol, Window, save_mask, save_mask_stack
from ssmrecon.spatial import _KNN_K, _QUERY_BLOCK_POINTS, MAX_COORDINATE_MM, SurfaceIndex


@pytest.fixture(scope="module")
def space20(aligned_population_20):
    return build_ssm(aligned_population_20, 10)


def _fields(params: MlpParams) -> list[np.ndarray]:
    return [params.w1, params.b1, params.w2, params.b2]


# ---------------------------------------------------------------------------
# Sidecar I/O


def test_overwrite_keeps_loaded_weights_and_leaves_no_tmp(tmp_path):
    old = init_params(20, 6, 4, seed=8)
    new = init_params(20, 6, 4, seed=9)
    save_weights(old, tmp_path / "net")
    loaded = load_weights(tmp_path / "net")
    save_weights(new, tmp_path / "net")
    for got, want in zip(_fields(loaded), _fields(old)):
        assert np.array_equal(got, want)
    for got, want in zip(_fields(load_weights(tmp_path / "net")), _fields(new)):
        assert np.array_equal(got, want)
    assert not list(tmp_path.glob("*.tmp"))


def test_overwrite_keeps_loaded_shape_space(tmp_path, space20, aligned_population_20):
    other = build_ssm(aligned_population_20[:12], 5)
    save_ssm(space20, tmp_path / "model")
    loaded = load_ssm(tmp_path / "model")
    save_ssm(other, tmp_path / "model")
    assert np.array_equal(loaded.mean, space20.mean)
    assert np.array_equal(loaded.components, space20.components)
    again = load_ssm(tmp_path / "model")
    assert np.array_equal(again.components, other.components)
    assert again.n_population == 12
    assert not list(tmp_path.glob("*.tmp"))


def test_nan_in_weight_payload_rejected(tmp_path):
    save_weights(init_params(20, 6, 4, seed=8), tmp_path / "net")
    payload = tmp_path / "net.mlp.bin"
    raw = bytearray(payload.read_bytes())
    raw[8 * 7 : 8 * 8] = np.array([np.nan], dtype="<f8").tobytes()
    payload.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="finite"):
        load_weights(tmp_path / "net")


@pytest.mark.parametrize("keep", [0, 3, -5])
def test_odd_sized_or_empty_weight_payload_rejected(tmp_path, keep):
    save_weights(init_params(20, 6, 4, seed=8), tmp_path / "net")
    payload = tmp_path / "net.mlp.bin"
    raw = payload.read_bytes()
    payload.write_bytes(raw[:keep] if keep >= 0 else raw + bytes(-keep))
    with pytest.raises(DataError, match="truncated"):
        load_weights(tmp_path / "net")


def test_empty_shape_space_payload_rejected(tmp_path, space20):
    save_ssm(space20, tmp_path / "model")
    (tmp_path / "model.ssm.bin").write_bytes(b"")
    with pytest.raises(DataError, match="truncated"):
        load_ssm(tmp_path / "model")


def test_loaded_arrays_not_writeable(tmp_path, space20):
    save_weights(init_params(20, 6, 4, seed=8), tmp_path / "net")
    save_ssm(space20, tmp_path / "model")
    space = load_ssm(tmp_path / "model")
    for arr in _fields(load_weights(tmp_path / "net")) + [space.mean, space.components, space.score_scale]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_save_accepts_either_file_name(tmp_path):
    params = init_params(5, 3, 2, seed=1)
    manifest, payload = save_weights(params, tmp_path / "net.mlp.bin")
    assert (manifest.name, payload.name) == ("net.mlp.json", "net.mlp.bin")
    assert np.array_equal(load_weights(tmp_path / "net.mlp.json").w1, params.w1)


# ---------------------------------------------------------------------------
# Every artifact is replaced whole: concurrent and interrupted writes


def _write_obj(directory, k):
    M.save_mesh(M.icosphere(10.0 + k, 2 + k), directory / "mesh.obj")


def _write_pgm(directory, k):
    save_mask(np.eye(16 + 48 * k, dtype=np.uint8), directory / "mask.pgm")


def _write_stack(directory, k):
    """The same masks each time; the manifest's offsets and window differ with ``k``."""
    masks = tuple(np.tri(32, k=i, dtype=np.uint8) for i in range(3))
    window = Window(np.full(3, -50.0 - k / 3), np.full(3, 50.0 + k / 7))
    offsets = (0.35, 0.5, 0.65) if k == 0 else (0.3, 0.5123456789, 0.7)
    save_mask_stack(MaskStack(masks), directory, SliceProtocol(offsets, window, 32))


def _write_model(directory, k):
    save_weights(init_params(20, 6 + 4 * k, 4, seed=k), directory / "net")


WRITERS = {"obj": _write_obj, "pgm": _write_pgm, "stack": _write_stack, "model": _write_model}


def _files(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_concurrent_writers_leave_one_writers_complete_file(tmp_path, kind):
    write = WRITERS[kind]
    variants = []
    for k in (0, 1):
        (tmp_path / f"alone{k}").mkdir()
        write(tmp_path / f"alone{k}", k)
        variants.append(_files(tmp_path / f"alone{k}"))
    shared = tmp_path / "shared"
    errors = []

    def writer(k, start):
        start.wait()
        try:
            for _ in range(5):
                write(shared, k)
        except Exception as exc:  # reported below, with the round it happened in
            errors.append(exc)

    for round_ in range(10):
        start = threading.Barrier(2)
        threads = [threading.Thread(target=writer, args=(k, start)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == [], (round_, errors)
        got = _files(shared)
        assert set(got) == set(variants[0]), (round_, sorted(got))
        for name, data in got.items():
            assert data in (variants[0][name], variants[1][name]), (round_, name)


def test_concurrent_model_saves_leave_one_writers_pair(tmp_path, monkeypatch):
    """The last writer of a stem wins both files.

    Once the wide model's payload is in place, its save waits (up to 50 ms) for
    the narrow model's whole save, so two renames that are not held as one leave
    the narrow payload under the wide manifest.
    """
    narrow, wide = init_params(20, 6, 4, seed=0), init_params(20, 10, 4, seed=1)
    wide_payload_in, narrow_saved = threading.Event(), threading.Event()
    replace = os.replace

    def replace_then_wait(src, dst):
        replace(src, dst)
        if threading.current_thread().name == "wide" and str(dst).endswith(".bin"):
            wide_payload_in.set()
            narrow_saved.wait(0.05)

    monkeypatch.setattr(os, "replace", replace_then_wait)

    def save_narrow():
        wide_payload_in.wait(5.0)
        save_weights(narrow, tmp_path / "net")
        narrow_saved.set()

    threads = [
        threading.Thread(target=save_weights, args=(wide, tmp_path / "net"), name="wide"),
        threading.Thread(target=save_narrow),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10.0)
        assert not t.is_alive()
    for got, want in zip(_fields(load_weights(tmp_path / "net")), _fields(narrow)):
        assert np.array_equal(got, want)


class _FailsPartWay(io.FileIO):
    """A temp file that takes half of a write, or the first array a model streams in, then raises."""

    arrays = 0

    def write(self, data):
        super().write(bytes(data)[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def fileno(self):  # numpy's tofile writes each array through the descriptor
        self.arrays += 1
        if self.arrays > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().fileno()


@pytest.mark.parametrize(
    "kind, failing",
    [("obj", ".obj."), ("pgm", ".pgm."), ("stack", "stack.json."), ("model", ".mlp.bin.")],
)
def test_interrupted_write_keeps_previous_file(tmp_path, monkeypatch, kind, failing):
    """A write that raises part-way leaves the old bytes and no temp file behind."""
    WRITERS[kind](tmp_path, 0)
    before = _files(tmp_path)

    def open_failing(path, mode):
        return _FailsPartWay(path, mode) if failing in path.name else open(path, mode)

    monkeypatch.setattr(sidecar, "open", open_failing, raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[kind](tmp_path, 1)
    assert _files(tmp_path) == before


def test_payload_size_is_the_manifest_total(tmp_path, space20):
    pairs = (save_weights(init_params(300, 7, 5, seed=3), tmp_path / "net"), save_ssm(space20, tmp_path / "model"))
    for manifest, payload in pairs:
        layout = sidecar.read_manifest(manifest, "test")["payload"]
        assert payload.stat().st_size == 8 * sum(entry["count"] for entry in layout.values())
        assert payload.stat().st_size == max(entry["offset"] + 8 * entry["count"] for entry in layout.values())


# ---------------------------------------------------------------------------
# boundary_edges keys


def _boundary_edges_rows(mesh: M.TriMesh) -> np.ndarray:
    """Reference: unique rows of the sorted edge list."""
    f = mesh.faces
    edges = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    return uniq[counts != 2]


def test_boundary_edges_match_row_unique_on_holey_mesh():
    sphere = M.icosphere(10.0, 3)
    holey = M.TriMesh(sphere.vertices, np.delete(sphere.faces, [0, 1, 57, 200, 201, 202, 640], axis=0))
    got = M.boundary_edges(holey)
    want = _boundary_edges_rows(holey)
    assert len(want) > 6
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    with pytest.raises(DataError, match="not closed"):
        M.validate_closed(holey)


def test_boundary_edges_closed():
    assert M.boundary_edges(M.icosphere(1.0, 2)).shape == (0, 2)


# ---------------------------------------------------------------------------
# SurfaceIndex against the brute-force oracle


def _cube_row(n: int = 4, edge: float = 30.0) -> M.TriMesh:
    """Disjoint cubes along x: enough faces for the accelerated path, many ties."""
    parts = [M.cube(edge, origin=(100.0 * i, 0.0, 0.0)) for i in range(n)]
    vertices = np.concatenate([c.vertices for c in parts])
    faces = np.concatenate([c.faces + 8 * i for i, c in enumerate(parts)])
    return M.TriMesh(vertices, faces)


def _assert_matches_brute(mesh: M.TriMesh, points: np.ndarray) -> None:
    index = SurfaceIndex(mesh)
    assert len(index.tri) > 32  # not the brute-force fallback
    fast_pt, fast_d = index.query(points)
    brute_pt, brute_d = closest_points_brute(points, mesh)
    np.testing.assert_allclose(fast_d, brute_d, rtol=0, atol=1e-9)
    np.testing.assert_allclose(fast_pt, brute_pt, rtol=0, atol=1e-9)


def test_query_matches_brute_at_shared_vertices_and_edges():
    mesh = _cube_row()
    tri = mesh.triangle_corners()
    midpoints = np.concatenate([(tri[:, 0] + tri[:, 1]) / 2, (tri[:, 1] + tri[:, 2]) / 2])
    centre = mesh.vertices.reshape(-1, 8, 3).mean(axis=1).repeat(8, axis=0)
    outward = mesh.vertices + 0.5 * (mesh.vertices - centre)  # on the corner diagonals
    _assert_matches_brute(mesh, np.concatenate([mesh.vertices, midpoints, outward]))


def test_query_matches_brute_off_surface():
    rng = np.random.default_rng(3)
    for mesh in (_cube_row(), M.icosphere(40.0, 3)):
        samples = M.surface_samples(mesh, 400, seed=5)
        direction = rng.normal(size=samples.shape)
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        offset = rng.uniform(5.0, 20.0, size=(len(samples), 1))
        _assert_matches_brute(mesh, samples + offset * direction)


def _tie_heavy_points(mesh: M.TriMesh, seed: int) -> np.ndarray:
    """Vertices, edge midpoints, and points 0.1-20 mm off the surface."""
    rng = np.random.default_rng(seed)
    tri = mesh.triangle_corners()
    midpoints = np.concatenate([(tri[:, i] + tri[:, (i + 1) % 3]) / 2 for i in range(3)])
    samples = M.surface_samples(mesh, 300, seed=seed)
    direction = rng.normal(size=samples.shape)
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    offset = rng.uniform(0.1, 20.0, size=(len(samples), 1))
    return np.concatenate([mesh.vertices, midpoints, samples + offset * direction])


def _assert_bit_equal_and_order_free(mesh: M.TriMesh, points: np.ndarray) -> None:
    index = SurfaceIndex(mesh)
    fast_pt, fast_d = index.query(points)
    brute_pt, brute_d = closest_points_brute(points, mesh)
    assert np.array_equal(fast_d, brute_d)
    assert np.array_equal(fast_pt, brute_pt)
    perm = np.random.default_rng(1).permutation(len(points))
    shuffled_pt, shuffled_d = index.query(points[perm])
    assert np.array_equal(shuffled_pt, fast_pt[perm])
    assert np.array_equal(shuffled_d, fast_d[perm])


@pytest.mark.parametrize("mesh", [_cube_row(), M.cube(30.0), M.icosphere(40.0, 2), M.icosphere(40.0, 3)],
                         ids=["four-cubes", "cube", "icosphere-2", "icosphere-3"])
def test_query_bit_equal_to_brute_and_order_free(mesh):
    """Tied faces resolve to the lowest face id, as in the oracle, whatever the query order."""
    _assert_bit_equal_and_order_free(mesh, _tie_heavy_points(mesh, seed=len(mesh.faces)))


def _triangle_soup(kind: str, seed: int, n_faces: int = 60) -> M.TriMesh:
    """Unshared triangles: ordinary, slivers (1e-7 mm thick) or zero-area (collinear or one point)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-20.0, 20.0, size=(n_faces, 3))
    u = rng.normal(size=(n_faces, 3)) * 8.0
    if kind == "ordinary":
        c = a + rng.normal(size=(n_faces, 3)) * 8.0
    elif kind == "sliver":
        c = a + 0.5 * u + rng.normal(size=(n_faces, 3)) * 1e-7
    else:  # collinear: the third corner on the line through the first two, some on the first
        c = a + rng.choice([-1.0, 0.0, 0.5, 2.0], size=(n_faces, 1)) * u
        u[::7] = 0.0
    return M.TriMesh(np.stack([a, a + u, c], axis=1).reshape(-1, 3), np.arange(3 * n_faces).reshape(-1, 3))


@pytest.mark.parametrize("scale", [1.0, 1e-80, 1e-163], ids=["mm", "1e-80", "1e-163"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["ordinary", "sliver", "collinear"])
def test_query_bit_equal_on_triangle_soups(kind, seed, scale):
    """Slivers and zero-area faces (NaN normals) are bounded or kept, never wrongly pruned.

    At 1e-80 mm the squares inside a cross product's length underflow; at
    1e-163 mm squared distances do too.
    """
    mesh = _triangle_soup(kind, seed)
    tri = mesh.triangle_corners()
    rng = np.random.default_rng(100 + seed)
    direction = rng.normal(size=(len(tri), 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    near = tri.mean(axis=1) + rng.uniform(0.0, 50.0, size=(len(tri), 1)) * direction
    points = np.concatenate([mesh.vertices, (tri[:, 0] + tri[:, 1]) / 2, near, rng.uniform(-70.0, 70.0, size=(200, 3))])
    _assert_bit_equal_and_order_free(mesh.with_vertices(mesh.vertices * scale), points * scale)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["ordinary", "sliver", "collinear"])
def test_query_bit_equal_on_triangle_soups_at_coordinate_bound(kind, seed):
    """Scaled so the largest coordinate sits just inside the bound, the query is still exact."""
    mesh = _triangle_soup(kind, seed)
    tri = mesh.triangle_corners()
    rng = np.random.default_rng(100 + seed)
    points = np.concatenate([mesh.vertices, (tri[:, 0] + tri[:, 1]) / 2, rng.uniform(-70.0, 70.0, size=(200, 3))])
    scale = 0.999 * MAX_COORDINATE_MM / max(np.abs(points).max(), np.abs(mesh.vertices).max())
    _assert_bit_equal_and_order_free(mesh.with_vertices(mesh.vertices * scale), points * scale)


def test_coordinates_beyond_bound_rejected():
    """At 1e100 mm the exact test's products overflow, so neither meshes nor points get that far."""
    mesh = _triangle_soup("ordinary", 0)
    with pytest.raises(DataError, match=r"mesh coordinates must lie within \+-1e\+60 mm"):
        SurfaceIndex(mesh.with_vertices(mesh.vertices * 1e100))
    with pytest.raises(DataError, match=r"query points must be finite and lie within \+-1e\+60 mm"):
        SurfaceIndex(mesh).query(mesh.vertices * 1e100)


def test_query_bit_equal_for_one_liver_sampled_against_another(blob_pair):
    """Evaluation traffic: surface samples of one subject, a few mm off the other's surface."""
    sampled, indexed = blob_pair
    _assert_bit_equal_and_order_free(indexed, M.surface_samples(sampled, 1000, seed=11))
    _assert_bit_equal_and_order_free(sampled, M.surface_samples(indexed, 1000, seed=12))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_point_is_data_error(bad):
    mesh = M.icosphere(10.0, 2)
    with pytest.raises(DataError, match="finite"):
        SurfaceIndex(mesh).query(np.array([[0.0, 0.0, 0.0], [bad, 0.0, 0.0]]))
    with pytest.raises(DataError, match="finite"):
        SurfaceIndex(mesh).query([[bad, 0.0, 0.0]])


@pytest.mark.parametrize("mesh", [M.icosphere(40.0, 2), _triangle_soup("sliver", 0)], ids=["icosphere-2", "sliver-soup"])
def test_query_in_blocks_bit_equal_to_brute_and_order_free(mesh):
    """Two full blocks and a partial one answer as the oracle does, whatever the order."""
    rng = np.random.default_rng(7)
    points = rng.uniform(-60.0, 60.0, size=(2 * _QUERY_BLOCK_POINTS + 3, 3))
    _assert_bit_equal_and_order_free(mesh, points)


@pytest.mark.parametrize("mesh", [_triangle_soup("ordinary", 0, n_faces=1), _triangle_soup("sliver", 1, n_faces=2), M.cube(30.0)],
                         ids=["1-face", "2-face", "12-face"])
def test_query_bit_equal_on_meshes_with_few_faces(mesh):
    """Fewer faces than a k-NN call asks for."""
    _assert_bit_equal_and_order_free(mesh, _tie_heavy_points(mesh, seed=len(mesh.faces)))


def test_query_bit_equal_far_off_the_surface():
    """At 1e11-1e12 mm the rounding slack puts every face in each point's ball, more than a k-NN call keeps."""
    mesh = M.icosphere(40.0, 2)
    assert len(mesh.faces) > _KNN_K
    rng = np.random.default_rng(5)
    direction = rng.normal(size=(200, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    _assert_bit_equal_and_order_free(mesh, direction * rng.uniform(1e11, 1e12, size=(200, 1)))


def test_query_of_no_points_returns_empty_arrays():
    closest, distances = SurfaceIndex(M.icosphere(40.0, 2)).query(np.zeros((0, 3)))
    assert closest.shape == (0, 3) and distances.shape == (0,)


@pytest.mark.parametrize("shape", [(5, 2), (4, 3, 1), (1, 4)])
def test_query_points_of_wrong_shape_are_data_error(shape):
    with pytest.raises(DataError, match=re.escape(f"query points must form an (n, 3) array, not one of shape {shape}")):
        SurfaceIndex(M.icosphere(40.0, 2)).query(np.zeros(shape))


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_query_memory_does_not_grow_with_point_count(blob_pair):
    """Four blocks of liver samples peak as one block does, once their outputs are left out."""
    sampled, indexed = blob_pair
    index = SurfaceIndex(indexed)
    points = M.surface_samples(sampled, 4 * _QUERY_BLOCK_POINTS, seed=13)
    one = points[:_QUERY_BLOCK_POINTS]
    index.query(one)  # warm-up: nothing allocated once per process is counted
    output_bytes = 4 * 8  # a closest point and a distance per query point
    one_peak = _traced_peak(index.query, one) - output_bytes * len(one)
    four_peak = _traced_peak(index.query, points) - output_bytes * len(points)
    assert four_peak <= 1.25 * one_peak, (four_peak, one_peak)
