# Square-lattice geometry: vertices, plaquettes, checkerboard coloring.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Vertex = tuple[int, int]
Plaquette = tuple[int, int]
Edge = tuple[Vertex, Vertex]

OPEN = "open"
PERIODIC = "periodic"
BLACK = "black"
WHITE = "white"


class LatticeError(ValueError):
    """Invalid lattice geometry or out-of-range coordinates."""


@dataclass(frozen=True)
class LatticeSpec:
    """An lx-by-ly grid of qubits with open or periodic boundary.

    Plaquettes are addressed by their top-left vertex and act on the four
    corners in clockwise order TL, TR, BR, BL; corner 0 (TL) is the most
    significant bit of any 16-dimensional matrix living on a plaquette.
    A plaquette at (x, y) is black when x + y is even, white otherwise.
    """

    lx: int
    ly: int
    boundary: str = OPEN

    def __post_init__(self) -> None:
        for name in ("lx", "ly"):  # bool is an int subclass; numpy integers become ints
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise LatticeError(f"{name} must be an integer, got {n!r}")
            object.__setattr__(self, name, int(n))
        if self.boundary not in (OPEN, PERIODIC):
            raise LatticeError(f"unknown boundary {self.boundary!r}")
        if self.lx < 2 or self.ly < 2:
            raise LatticeError("lattice needs at least 2 vertices per side")
        if self.boundary == PERIODIC:
            if self.lx % 2 or self.ly % 2:
                # checkerboard coloring is inconsistent around an odd torus
                raise LatticeError("periodic lattice needs even side lengths")
            if self.lx < 4 or self.ly < 4:
                # on a width-2 torus two same-color plaquettes share two or
                # more vertices, which breaks the single-vertex overlap rule
                raise LatticeError("periodic lattice needs side lengths >= 4")

    @property
    def n_vertices(self) -> int:
        return self.lx * self.ly

    def vertices(self) -> list[Vertex]:
        return [(x, y) for y in range(self.ly) for x in range(self.lx)]


def is_black(p: Plaquette) -> bool:
    return (p[0] + p[1]) % 2 == 0


def plaquette_color(p: Plaquette) -> str:
    return BLACK if is_black(p) else WHITE


def plaquette_range(spec: LatticeSpec) -> tuple[int, int]:
    """The columns and rows of plaquettes: (x, y) is index y * px + x of `plaquettes`."""
    if spec.boundary == PERIODIC:
        return spec.lx, spec.ly
    return spec.lx - 1, spec.ly - 1


def plaquettes(spec: LatticeSpec) -> list[Plaquette]:
    """All plaquettes in row-major order."""
    px, py = plaquette_range(spec)
    return [(x, y) for y in range(py) for x in range(px)]


def corner_ids(spec: LatticeSpec) -> np.ndarray:
    """The (n_plaquettes, 4) row-major vertex ids y * lx + x of every
    plaquette's corners TL, TR, BR, BL, plaquettes in `plaquettes` order."""
    px, py = plaquette_range(spec)
    y, x = np.divmod(np.arange(px * py), px)
    x1, y1 = (x + 1) % spec.lx, (y + 1) % spec.ly
    return np.stack([y * spec.lx + x, y * spec.lx + x1, y1 * spec.lx + x1, y1 * spec.lx + x], axis=1)


def vertices_of(spec: LatticeSpec, ids) -> list[Vertex]:
    """The vertices (x, y) of row-major vertex ids."""
    y, x = np.divmod(np.asarray(ids, dtype=np.int64), spec.lx)
    return list(zip(x.tolist(), y.tolist()))


def corners(spec: LatticeSpec, p: Plaquette) -> list[Vertex]:
    """The four corner vertices of plaquette p, in order TL, TR, BR, BL."""
    x, y = p
    px, py = plaquette_range(spec)
    if not (0 <= x < px and 0 <= y < py):
        raise LatticeError(f"plaquette {p} out of range for {spec.lx}x{spec.ly} {spec.boundary}")
    x1, y1 = (x + 1) % spec.lx, (y + 1) % spec.ly  # no wrap on an open lattice, where x < lx - 1
    return [(x, y), (x1, y), (x1, y1), (x, y1)]


def incident_plaquettes(spec: LatticeSpec, v: Vertex, color: str | None = None) -> list[Plaquette]:
    """Plaquettes that have v as a corner, optionally filtered by color.

    A vertex sits on at most 4 plaquettes (2 black + 2 white); fewer on an
    open boundary.
    """
    x, y = v
    if not (0 <= x < spec.lx and 0 <= y < spec.ly):
        raise LatticeError(f"vertex {v} out of range")
    px, py = plaquette_range(spec)
    # on an open lattice a step off the edge wraps to x = lx - 1 or y = ly - 1, which holds no plaquette
    near = {((x + dx) % spec.lx, (y + dy) % spec.ly) for dx in (-1, 0) for dy in (-1, 0)}
    found = [q for q in near if q[0] < px and q[1] < py and (color is None or plaquette_color(q) == color)]
    return sorted(found, key=lambda q: (q[1], q[0]))


def edges(spec: LatticeSpec) -> list[Edge]:
    """All nearest-neighbor edges, each as a sorted vertex pair."""
    out: list[Edge] = []
    for y in range(spec.ly):
        for x in range(spec.lx):
            if spec.boundary == PERIODIC or x + 1 < spec.lx:
                out.append(_edge_key((x, y), ((x + 1) % spec.lx, y)))
            if spec.boundary == PERIODIC or y + 1 < spec.ly:
                out.append(_edge_key((x, y), (x, (y + 1) % spec.ly)))
    return out


def _edge_key(a: Vertex, b: Vertex) -> Edge:
    return (a, b) if a <= b else (b, a)


def edge_owner(spec: LatticeSpec, a: Vertex, b: Vertex) -> Plaquette:
    """The unique plaquette an edge is assigned to.

    Every lattice edge borders one black and at most one white plaquette;
    the black one owns the edge when both exist, otherwise the single
    bordering plaquette does.
    """
    candidates = [q for q in incident_plaquettes(spec, a) if b in corners(spec, q)]
    if not candidates:
        raise LatticeError(f"edge {a}-{b} borders no plaquette")
    return next((q for q in candidates if is_black(q)), candidates[0])
