import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_rotation
from oracles import (
    boundary_edges_by_unique,
    brute_nearest_distance,
    closest_points_brute,
    icosphere_by_dict,
    load_mesh_by_lines,
    save_mesh_by_lines,
    voxel_volume_cm3,
)

from ssmrecon import mesh as M
from ssmrecon.errors import DataError
from ssmrecon.spatial import SurfaceIndex


# ---------------------------------------------------------------------------
# TriMesh invariants


def test_face_index_out_of_range_rejected():
    with pytest.raises(DataError, match="out of range"):
        M.TriMesh(np.zeros((3, 3)), [[0, 1, 3]])


def test_degenerate_face_rejected():
    with pytest.raises(DataError, match="degenerate"):
        M.TriMesh(np.zeros((3, 3)), [[0, 1, 1]])


def test_arrays_without_three_columns_rejected():
    """A (6, 2) array holds 12 values, as four rows of three would: it is refused, not reshaped."""
    tet = M.TriMesh(np.eye(4, 3), [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    with pytest.raises(DataError, match=r"faces must be an \(F, 3\) array, got shape \(6, 2\)"):
        M.TriMesh(tet.vertices, tet.faces.reshape(-1, 2))
    with pytest.raises(DataError, match=r"vertices must be an \(M, 3\) array, got shape \(6, 2\)"):
        M.TriMesh(tet.vertices.reshape(-1, 2), tet.faces)


def test_faceless_mesh_rejected():
    with pytest.raises(DataError, match="^mesh has no faces$"):
        M.TriMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int))


def test_vertices_are_immutable(centered_cube):
    with pytest.raises(ValueError):
        centered_cube.vertices[0, 0] = 99.0


# ---------------------------------------------------------------------------
# OBJ I/O


def test_load_cube_counts(tmp_path):
    M.save_mesh(M.cube(1.0), tmp_path / "cube.obj")
    text = (tmp_path / "cube.obj").read_text()
    assert sum(line.startswith("v ") for line in text.splitlines()) == 8
    assert sum(line.startswith("f ") for line in text.splitlines()) == 12
    mesh = M.load_mesh(tmp_path / "cube.obj")
    assert mesh.n_vertices == 8
    assert mesh.n_faces == 12


def test_round_trip_identity(tmp_path, icosphere10):
    path = tmp_path / "ico.obj"
    M.save_mesh(icosphere10, path)
    again = M.load_mesh(path)
    assert np.abs(again.vertices - icosphere10.vertices).max() < 1e-6
    assert np.array_equal(again.faces, icosphere10.faces)


def test_faceless_obj_rejected(tmp_path):
    path = tmp_path / "faceless.obj"
    for text in ("", "v 0 0 0\nv 1 0 0\nv 0 1 0\n"):
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{path}: mesh has no faces$"):
            M.load_mesh(path)


_EXTREME_VALUES = M.TriMesh(
    [[-0.0, 1e-05, 1e16], [5e-324, 1.7976931348623157e308, -1e-05], [0.1, -2.5, 3.0], [-5e-324, 0.0, -1e16]],
    [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]],
)


@pytest.mark.parametrize(
    "mesh",
    [M.cube(1.0), M.icosphere(37.3, 3), _EXTREME_VALUES],
    ids=["cube", "icosphere", "extreme-values"],
)
def test_save_bytes_match_line_writer(tmp_path, mesh):
    M.save_mesh(mesh, tmp_path / "fast.obj")
    save_mesh_by_lines(mesh, tmp_path / "lines.obj")
    assert (tmp_path / "fast.obj").read_bytes() == (tmp_path / "lines.obj").read_bytes()
    again = M.load_mesh(tmp_path / "fast.obj")
    assert np.array_equal(again.vertices, mesh.vertices) and np.array_equal(again.faces, mesh.faces)


def test_duplicated_vertex_obj_is_not_closed(tmp_path):
    """A seam written with a copy of a vertex loads, then fails every closedness check."""
    path = tmp_path / "seam.obj"
    M.save_mesh(M.cube(10.0), path)
    text = path.read_text().replace("f 1 3 2\n", "v 0.0 0.0 0.0\nf 1 3 2\n", 1)
    path.write_text(text.replace("f 1 5 8\nf 1 8 4\n", "f 9 5 8\nf 9 8 4\n"))
    mesh = M.load_mesh(path)
    assert mesh.n_vertices == 9 and np.array_equal(mesh.vertices[8], mesh.vertices[0])
    message = r"mesh is not closed: edge \(0, 3\)"
    with pytest.raises(DataError, match=message):
        M.validate_closed(mesh)
    with pytest.raises(DataError, match=message):
        M.signed_volume(mesh)


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.obj"
    lines = [f"v {i} 0 0" for i in range(8)] + ["f 1 2 9"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r":9:"):
        M.load_mesh(path)


def test_fan_triangulation_and_slash_indices(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1/1 2/2 3/3 4/4\n")
    mesh = M.load_mesh(path)
    assert mesh.n_faces == 2
    assert np.array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])


# A grammar of OBJ texts: every record kind the reader meets, spelled in the ways
# str.split, float and int accept, and each fault it must report.
_SEPARATORS = [" ", "  ", "\t", " \t", "\x0b", "\x0c", "\x1c", "\xa0", "\u2028", "\u3000"]
_ENDINGS = ["\n", "\r\n", "\r"]
_GOOD_FLOATS = ["0", "-0", "+3", "1_0", "1e5", "-2.5E-3", ".5", "5.", "\u0663", "\U0001d7d9", "1_000.25", "12345678901234567890"]
_NON_FINITE = ["inf", "-Infinity", "nan", "NaN", "1e999"]
_BAD_FLOATS = ["abc", "1..2", "--1", "1e", "1,5", "0x10", "_1", "1__0", "1_", "\u216b", "v"]
_BAD_INDICES = ["x", "1.5", "/2", "1e2", "--1", "0x1", "1__0", "\u216b", "f"]
_IGNORED = ["vn 0 0 1", "vt 0.5 0.5", "g body", "s off", "o liver", "usemtl skin", "mtllib a.mtl", "l 1 2",
            "V 1 2 3", "F 1 2 3", "vp 0.1", "#", "# v 1 2 3", "#v 1 2 3", "#f 1 2 3", "f#"]


@st.composite
def _obj_texts(draw):
    n_vertices = 0
    lines = []
    kinds = ["v"] * draw(st.integers(0, 6))
    kinds += draw(st.lists(st.sampled_from(["f", "v", "f", "ignored", "f", "blank"]), max_size=20))
    # up to two faulty records, so that one fault sometimes hides behind another
    faulty = draw(st.sets(st.integers(0, len(kinds) - 1), max_size=2)) if kinds else set()
    # a valid face after at least three vertices ends every text, so one without a fault loads
    kinds += ["v"] * max(0, 3 - kinds.count("v")) + ["f"]
    for n, kind in enumerate(kinds):
        fault = None
        if n in faulty:
            fault = draw(st.sampled_from(["short", "bad", "range", "zero", "huge", "non-finite", "repeat"]))
        if kind == "f" and n_vertices < 3 and fault is None:
            kind = "v"  # a face needs three vertices before it
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x0c \xa0"])))
            continue
        if kind == "ignored":
            lines.append(draw(st.sampled_from(_IGNORED)))
            continue
        if kind == "v":
            n_vertices += 1
            coords = [repr(x) for x in draw(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=4))]
            if draw(st.booleans()):
                coords[draw(st.integers(0, 2))] = draw(st.sampled_from(_GOOD_FLOATS))
            if fault == "bad":
                coords[draw(st.integers(0, 2))] = draw(st.sampled_from(_BAD_FLOATS))
            elif fault == "non-finite":
                coords[draw(st.integers(0, 2))] = draw(st.sampled_from(_NON_FINITE))
            elif fault == "short":
                coords = coords[: draw(st.integers(0, 2))]
            tokens = ["v"] + coords
        else:
            ids = draw(st.lists(st.integers(0, max(n_vertices, 3) - 1), min_size=3, max_size=6, unique=True))
            spelled = []
            for i in ids:
                number = draw(st.sampled_from([str(i + 1), str(i - n_vertices), f"+{i + 1}", f"0{i + 1}"]))
                spelled.append(number + draw(st.sampled_from(["", "/1", "//2", "/1/2", "/"])))
            at = draw(st.integers(0, len(ids) - 1))
            if fault == "bad":
                spelled[at] = draw(st.sampled_from(_BAD_INDICES)) + draw(st.sampled_from(["", "/1", "//2"]))
            elif fault == "range":
                spelled[at] = draw(st.sampled_from([str(n_vertices + 1), str(-n_vertices - 1)])) + "/3"
            elif fault == "zero":
                spelled[at] = draw(st.sampled_from(["0", "-0", "0/1"]))
            elif fault == "huge":
                spelled[at] = draw(st.sampled_from(["99999999999999999999", "-9223372036854775809", "9223372036854775808"]))
            elif fault == "repeat":
                spelled[at] = spelled[at - 1]
            elif fault == "short":
                spelled = spelled[: draw(st.integers(0, 2))]
            tokens = ["f"] + spelled
        separators = [draw(st.sampled_from(_SEPARATORS)) for _ in tokens]
        lead = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + "".join(t + sep for t, sep in zip(tokens, separators)).rstrip(draw(st.sampled_from(["", " \t"]))))
    endings = [draw(st.sampled_from(_ENDINGS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, endings))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _load_outcome(load, path):
    """The mesh's bytes, or the DataError's message and the type of its cause."""
    try:
        mesh = load(path)
    except DataError as exc:
        return str(exc), type(exc.__cause__)
    return mesh.vertices.shape, mesh.vertices.tobytes(), mesh.faces.shape, mesh.faces.tobytes()


@given(text=_obj_texts())
@settings(max_examples=400, deadline=None)
def test_load_matches_line_reader(tmp_path_factory, text):
    """Same mesh bit for bit, or the same error for the same first bad line, as the line loop."""
    path = tmp_path_factory.mktemp("obj") / "grammar.obj"
    path.write_bytes(text.encode("utf-8"))
    assert _load_outcome(M.load_mesh, path) == _load_outcome(load_mesh_by_lines, path)


def test_non_manifold_obj_rejected_naming_edge(tmp_path):
    """A fin on one cube edge, so three faces share it, loads, then fails every closedness check."""
    path = tmp_path / "fin.obj"
    M.save_mesh(M.cube(10.0), path)
    path.write_text(path.read_text() + "v 5.0 -10.0 5.0\nf 1 2 9\n")
    mesh = M.load_mesh(path)
    assert (mesh.n_vertices, mesh.n_faces) == (9, 13)
    assert sum(set(face) >= {0, 1} for face in mesh.faces.tolist()) == 3
    message = r"mesh is not closed: edge \(0, 1\)"
    with pytest.raises(DataError, match=message):
        M.validate_closed(mesh)
    with pytest.raises(DataError, match=message):
        M.signed_volume(mesh)


@pytest.mark.parametrize("level", range(6))
def test_icosphere_bit_equal_to_dict_loop(level):
    got, want = M.icosphere(37.3, level), icosphere_by_dict(37.3, level)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert np.array_equal(got.faces, want.faces)


# ---------------------------------------------------------------------------
# Signed volume


def test_cube_volume_is_one_cm3():
    assert M.signed_volume(M.cube(10.0)) == pytest.approx(1.0, abs=1e-12)


def test_icosphere_volume_near_analytic():
    analytic = 4.0 / 3.0 * np.pi * 10.0**3 / 1000.0
    vol = M.signed_volume(M.icosphere(10.0, 4))
    assert vol == pytest.approx(analytic, rel=5e-3)


def test_inverted_cube_same_magnitude(caplog):
    """The same magnitude with the opposite sign, and nothing logged: the caller decides."""
    cube = M.cube(10.0)
    flipped = M.TriMesh(cube.vertices, cube.faces[:, ::-1])
    with caplog.at_level("DEBUG"):
        assert M.signed_volume(flipped) == -1.0
    assert caplog.records == []


def test_open_mesh_rejected_naming_edge():
    cube = M.cube(1.0)
    open_mesh = M.TriMesh(cube.vertices, cube.faces[:-1])
    # the edges found on the first call are kept, also by with_vertices; each call still fails
    for mesh in (open_mesh, open_mesh, open_mesh.with_vertices(2.0 * cube.vertices)):
        with pytest.raises(DataError, match=r"edge \(\d+, \d+\)"):
            M.signed_volume(mesh)


def _soup(faces, n_vertices=None):
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if n_vertices is None:
        n_vertices = int(faces.max()) + 1 if faces.size else 0
    return M.TriMesh(np.zeros((n_vertices, 3)), faces)


_CUBE = M.cube(1.0).faces


@st.composite
def _face_soups(draw):
    """Closed meshes with faces dropped, repeated and added, then shuffled."""
    base = draw(st.sampled_from([[], _CUBE.tolist(), M.icosphere(1.0, 1).faces.tolist()]))
    faces = [row for row in base if draw(st.integers(0, 9))]  # drops about one face in ten
    faces += draw(st.lists(st.sampled_from(base), max_size=3)) if base else []
    # faces over the old vertices and three new ones: fins on old edges, loose triangles
    n = int(np.max(base)) + 1 if base else 0
    # at least one face: a mesh without faces is refused at construction
    new = st.lists(st.integers(0, n + 2), min_size=3, max_size=3, unique=True)
    faces += draw(st.lists(new, min_size=0 if faces else 1, max_size=6))
    return _soup(draw(st.permutations(faces)), n + 3)


@given(mesh=_face_soups())
@example(mesh=_soup(_CUBE))  # closed
@example(mesh=_soup(_CUBE[1:]))  # open: edges of one face
@example(mesh=_soup(np.concatenate([_CUBE, [[0, 1, 8]]])))  # fin: edge (0, 1) in 3 faces
@example(mesh=_soup(np.concatenate([_CUBE, [[0, 1, 8], [1, 0, 9]]])))  # edge (0, 1) in 4 faces
@example(mesh=_soup(np.concatenate([_CUBE, _CUBE[:2]])))  # repeated faces
@settings(max_examples=300, deadline=None)
def test_boundary_edges_match_unique_oracle(mesh):
    got, want = M.boundary_edges(mesh), boundary_edges_by_unique(mesh)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_closedness_found_once_per_topology(monkeypatch):
    found = []
    real = M.boundary_edges
    monkeypatch.setattr(M, "boundary_edges", lambda mesh: found.append(mesh) or real(mesh))
    sphere = M.icosphere(10.0, 2)
    M.validate_closed(sphere)
    M.validate_closed(sphere)
    M.validate_closed(sphere.with_vertices(2.0 * sphere.vertices))
    assert len(found) == 1


def test_with_vertices_shares_closedness_and_face_text():
    sphere = M.icosphere(10.0, 2)
    bad, text = sphere._boundary, sphere._face_text
    moved = sphere.with_vertices(2.0 * sphere.vertices)
    assert moved._boundary is bad and moved._face_text is text
    coarse = M.icosphere(10.0, 1)
    copy = coarse.with_vertices(coarse.vertices + 1.0)
    text = copy._face_text  # found on the copy, kept for the mesh it came from
    assert coarse._face_text is text


def test_volume_rigid_invariance(icosphere10):
    rng = np.random.default_rng(4)
    base = M.signed_volume(icosphere10)
    for _ in range(3):
        rot = random_rotation(rng)
        moved = icosphere10.with_vertices(icosphere10.vertices @ rot.T + rng.uniform(-50, 50, 3))
        assert M.signed_volume(moved) == pytest.approx(base, rel=1e-9)


@given(scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_volume_scales_cubically(scale):
    cube = M.cube(10.0)
    scaled = cube.with_vertices(cube.vertices * scale)
    assert M.signed_volume(scaled) == pytest.approx(scale**3 * 1.0, rel=1e-9)


def test_volume_agrees_with_voxel_oracle():
    from ssmrecon import synth

    cfg = synth.SynthConfig(n=2, seed=21, jitter_levels=(3,))
    meshes, _ = synth.generate_population(cfg)
    vol = M.signed_volume(meshes[0])
    oracle = voxel_volume_cm3(meshes[0], h=0.5)
    assert vol == pytest.approx(oracle, rel=0.01)


# ---------------------------------------------------------------------------
# Surface sampling


def test_samples_on_single_triangle_plane():
    tri = M.TriMesh([[0, 0, 0], [10, 0, 0], [0, 10, 0]], [[0, 1, 2]])
    pts = M.surface_samples(tri, 1000, seed=1)
    assert np.abs(pts[:, 2]).max() < 1e-9
    assert (pts[:, 0] >= -1e-9).all() and (pts[:, 1] >= -1e-9).all()
    assert (pts[:, 0] + pts[:, 1] <= 10 + 1e-9).all()


def test_samples_match_area_share(centered_cube):
    # stretch one axis so faces have unequal areas
    stretched = centered_cube.with_vertices(centered_cube.vertices * np.array([3.0, 1.0, 1.0]))
    pts = M.surface_samples(stretched, 60_000, seed=2)
    areas = stretched.face_areas()
    # x-facing faces (at x = +-15) keep area 100; count points landing there
    on_hi_x = np.isclose(pts[:, 0], 15.0).mean()
    expect = areas[[8, 9, 10, 11]].sum() / areas.sum() / 2.0
    assert abs(on_hi_x - expect) < 0.02


def test_sampling_deterministic(icosphere10):
    a = M.surface_samples(icosphere10, 500, seed=9)
    b = M.surface_samples(icosphere10, 500, seed=9)
    assert np.array_equal(a, b)


def test_sampling_empty_mesh_rejected():
    with pytest.raises(DataError, match="^mesh has no faces$"):
        M.TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))


# ---------------------------------------------------------------------------
# Nearest surface distance


def test_distance_zero_at_vertex(icosphere10):
    assert SurfaceIndex(icosphere10).query(np.reshape(icosphere10.vertices[17], (1, 3)))[1][0] == pytest.approx(0.0, abs=1e-12)


def test_distance_above_cube_top(centered_cube):
    assert SurfaceIndex(centered_cube).query(np.reshape([0.0, 0.0, 15.0], (1, 3)))[1][0] == pytest.approx(10.0, abs=1e-12)


def test_accelerated_matches_brute_force(icosphere10):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-20, 20, size=(300, 3))
    index = SurfaceIndex(icosphere10)
    _, fast = index.query(pts)
    _, brute = closest_points_brute(pts, icosphere10)
    assert np.abs(fast - brute).max() < 1e-9


def test_distance_matches_independent_oracle(centered_cube):
    rng = np.random.default_rng(12)
    index = SurfaceIndex(centered_cube)
    for p in rng.uniform(-12, 12, size=(40, 3)):
        got = index.query(np.reshape(p, (1, 3)))[1][0]
        want = brute_nearest_distance(p, centered_cube)
        assert got == pytest.approx(want, abs=1e-9)
