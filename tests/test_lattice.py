import numpy as np
import pytest

from commham import lattice
from commham.lattice import BLACK, WHITE, LatticeError, LatticeSpec


def test_plaquettes_3x3_open_colors():
    spec = LatticeSpec(3, 3)
    ps = lattice.plaquettes(spec)
    assert ps == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert [lattice.plaquette_color(p) for p in ps] == [BLACK, WHITE, WHITE, BLACK]


def test_plaquettes_4x4_periodic_counts():
    spec = LatticeSpec(4, 4, "periodic")
    ps = lattice.plaquettes(spec)
    assert len(ps) == 16
    assert sum(lattice.is_black(p) for p in ps) == 8


def test_plaquettes_2x2_open_single_black():
    spec = LatticeSpec(2, 2)
    assert lattice.plaquettes(spec) == [(0, 0)]
    assert lattice.is_black((0, 0))


def test_corners_open():
    spec = LatticeSpec(3, 3)
    assert lattice.corners(spec, (0, 0)) == [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_corners_periodic_wraparound():
    spec = LatticeSpec(4, 4, "periodic")
    assert lattice.corners(spec, (3, 3)) == [(3, 3), (0, 3), (0, 0), (3, 0)]


def test_corners_out_of_range():
    spec = LatticeSpec(3, 3)
    with pytest.raises(LatticeError):
        lattice.corners(spec, (2, 0))


def test_incident_periodic_two_per_color():
    spec = LatticeSpec(4, 4, "periodic")
    for v in spec.vertices():
        bs = lattice.incident_plaquettes(spec, v, BLACK)
        ws = lattice.incident_plaquettes(spec, v, WHITE)
        assert len(bs) == 2 and len(ws) == 2
        # the two same-color plaquettes sit diagonally opposite across v
        (x0, y0), (x1, y1) = bs
        assert (x0 - x1) % spec.lx in (1, 3) and (y0 - y1) % spec.ly in (1, 3)


def test_incident_open_corner_and_interior():
    spec = LatticeSpec(3, 3)
    assert lattice.incident_plaquettes(spec, (0, 0), BLACK) == [(0, 0)]
    assert len(lattice.incident_plaquettes(spec, (1, 1), WHITE)) == 2


def test_periodic_odd_rejected():
    with pytest.raises(LatticeError):
        LatticeSpec(3, 3, "periodic")


@pytest.mark.parametrize(
    "lx, ly", [(4.0, 4), (4.5, 4), (4, 4.0), (True, 4), (4, np.float64(4)), (np.bool_(True), 4), ("4", 4)]
)
def test_non_integer_sizes_rejected(lx, ly):
    # floats would reach the numpy geometry as float sizes, not fail there
    with pytest.raises(LatticeError, match="must be an integer"):
        LatticeSpec(lx, ly)


def test_numpy_integer_sizes_become_int():
    spec = LatticeSpec(np.int64(4), np.int32(6), "periodic")
    assert type(spec.lx) is int and type(spec.ly) is int
    assert spec == LatticeSpec(4, 6, "periodic")


@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(2, 2), LatticeSpec(2, 7), LatticeSpec(5, 3), LatticeSpec(4, 4, "periodic"),
     LatticeSpec(6, 4, "periodic")],
    ids=str,
)
def test_corner_ids_match_corners(spec):
    ids = lattice.corner_ids(spec)
    assert ids.shape == (len(lattice.plaquettes(spec)), 4)
    want = [[y * spec.lx + x for x, y in lattice.corners(spec, p)] for p in lattice.plaquettes(spec)]
    assert ids.tolist() == want
    assert lattice.vertices_of(spec, ids[:, 0]) == lattice.plaquettes(spec)


def test_periodic_width_two_rejected():
    with pytest.raises(LatticeError):
        LatticeSpec(2, 4, "periodic")


@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(3, 3), LatticeSpec(4, 5), LatticeSpec(4, 4, "periodic"), LatticeSpec(6, 4, "periodic")],
)
def test_intersection_invariants(spec):
    ps = lattice.plaquettes(spec)
    cs = {p: set(lattice.corners(spec, p)) for p in ps}
    for i, p in enumerate(ps):
        for q in ps[i + 1 :]:
            shared = len(cs[p] & cs[q])
            if lattice.is_black(p) == lattice.is_black(q):
                assert shared <= 1
            else:
                assert shared in (0, 2)


@pytest.mark.parametrize(
    "spec", [LatticeSpec(3, 3), LatticeSpec(2, 4), LatticeSpec(4, 4, "periodic")]
)
def test_vertex_membership_bounds(spec):
    for v in spec.vertices():
        for color in (BLACK, WHITE):
            n = len(lattice.incident_plaquettes(spec, v, color))
            assert n <= 2
            if spec.boundary == "periodic":
                assert n == 2


@pytest.mark.parametrize(
    "spec", [LatticeSpec(3, 3), LatticeSpec(4, 3), LatticeSpec(4, 4, "periodic")]
)
def test_edge_ownership_partition(spec):
    # every edge is owned by exactly one plaquette, and that plaquette
    # contains both endpoints
    for a, b in lattice.edges(spec):
        owner = lattice.edge_owner(spec, a, b)
        cs = lattice.corners(spec, owner)
        assert a in cs and b in cs
    assert len(set(lattice.edges(spec))) == len(lattice.edges(spec))
