"""Reference mesher for the tests: marching squares over tuple-keyed vertices.

This is the route `count_ovals` took before it kept its segments in integer
arrays and placed vertices only when read; it is kept here as an
independent oracle.  Every vertex is named by a tuple, ("h" or "v", i, j) on
the coarse lattice and ("s", i, j, kind, a, b) on the sub-lattice of cell
(i, j), and placed when first named, by `_edge_point` from two exact row
values.  Chains are joined over dicts of those keys, and the ovals are
sorted by (min x, min y) over all their vertices.  The signs, rows, edge
proofs and certification are the library's.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from foltools.errors import DegenerateInput
from foltools.realtopo import (
    MAX_SUBDIVISION_DEPTH,
    _AMBIGUOUS,
    _LatticeLines,
    _box_lattice,
    _cases,
    _certify_loops,
    _sign_grid,
    default_box,
)
from foltools.uniroots import ueval

_SEGMENTS = {
    1: [("B", "L")],
    2: [("B", "R")],
    3: [("L", "R")],
    4: [("R", "T")],
    6: [("B", "T")],
    7: [("L", "T")],
    8: [("L", "T")],
    9: [("B", "T")],
    11: [("R", "T")],
    12: [("L", "R")],
    13: [("B", "R")],
    14: [("B", "L")],
}


def _cell_edges(i: int, j: int) -> dict[str, tuple]:
    return {"B": ("h", i, j), "T": ("h", i, j + 1), "L": ("v", i, j), "R": ("v", i + 1, j)}


def _edge_point(rows, lattice: tuple, kind: str, i: int, j: int) -> tuple[float, float]:
    """Zero of the linear interpolant of f on the lattice edge from node (i, j)
    along x ("h") or y ("v"): x + t * (sx/dx) or y + t * (sy/dy) with
    t = va/(va - vb) from the exact row values at its ends."""
    ax, sx, dx, ay, sy, dy, _ = lattice
    nx = ax + i * sx
    va = ueval(rows[j], nx)
    x, y = nx / dx, (ay + j * sy) / dy
    if kind == "h":
        return x + va / (va - ueval(rows[j], nx + sx)) * (sx / dx), y
    return x, y + va / (va - ueval(rows[j + 1], nx)) * (sy / dy)


class TupleMesher:
    def __init__(self, f, lattice: tuple, signs: np.ndarray, rows):
        self.f, self.lattice, self.signs, self.rows = f, lattice, signs, rows
        self.segments: list[tuple] = []
        self.vertex_pos: dict[tuple, tuple[float, float]] = {}
        self.uncertified_cells: set[tuple[int, int]] = set()
        self.warnings: list[str] = []

    def _edge_vertex(self, kind: str, i: int, j: int) -> tuple:
        key = (kind, i, j)
        if key not in self.vertex_pos:
            self.vertex_pos[key] = _edge_point(self.rows, self.lattice, kind, i, j)
        return key

    def run(self):
        self._march(_cases(self.signs), self._edge_vertex)

    def _march(self, cases: np.ndarray, vertex: Callable, cell: tuple[int, int] | None = None):
        for j, i in zip(*np.nonzero((cases != 0) & (cases != 15))):
            i, j = int(i), int(j)
            pattern = int(cases[j, i])
            if pattern in _AMBIGUOUS:
                self._subdivide_cell(i, j)
                continue
            edges = _cell_edges(i, j)
            for a, b in _SEGMENTS[pattern]:
                self.segments.append((vertex(*edges[a]), vertex(*edges[b]), cell or (i, j)))

    def _subdivide_cell(self, i: int, j: int):
        ax, sx, dx, ay, sy, dy, _ = self.lattice
        for depth in range(1, MAX_SUBDIVISION_DEPTH + 1):
            m = 1 << depth
            sub = (m * (ax + i * sx), sx, m * dx, m * (ay + j * sy), sy, m * dy, m)
            signs, rows = _sign_grid(self.f, *sub)
            if signs is None:
                continue
            cases = _cases(signs)
            if not np.isin(cases, _AMBIGUOUS).any():
                self._emit_subgrid(i, j, sub, signs, rows, cases)
                return
        self.uncertified_cells.add((i, j))
        self.warnings.append(
            f"cell ({i},{j}) still ambiguous at depth {MAX_SUBDIVISION_DEPTH}; count may be unreliable there"
        )
        edges = _cell_edges(i, j)
        for a, b in (("B", "L"), ("T", "R")):
            self.segments.append((self._edge_vertex(*edges[a]), self._edge_vertex(*edges[b]), (i, j)))

    def _emit_subgrid(self, i: int, j: int, sub: tuple, signs: np.ndarray, rows, cases: np.ndarray):
        m = sub[-1]

        def sub_vertex(kind: str, a: int, b: int) -> tuple:
            key = ("s", i, j, kind, a, b)
            if key not in self.vertex_pos:
                self.vertex_pos[key] = _edge_point(rows, sub, kind, a, b)
            return key

        parent_edges = _cell_edges(i, j)
        sides = {
            "B": ("h", 0, signs[0]),
            "T": ("h", m, signs[m]),
            "L": ("v", 0, signs[:, 0]),
            "R": ("v", m, signs[:, m]),
        }
        to_parent: dict[tuple, tuple] = {}
        for side, (kind, at, line) in sides.items():
            crossed = np.flatnonzero(line[:-1] != line[1:]).tolist()
            keys = [(kind, k, at) if kind == "h" else (kind, at, k) for k in crossed]
            if len(keys) == 1:
                to_parent[keys[0]] = self._edge_vertex(*parent_edges[side])
            elif len(keys) > 1:
                self.uncertified_cells.add((i, j))
                self.warnings.append(
                    f"cell ({i},{j}): {len(keys)} crossings on one shared edge; "
                    "neighbor resolution too coarse, pairing locally"
                )
                keys = [sub_vertex(*k) for k in keys]
                start = len(keys) % 2
                if start:
                    self.segments.append((keys[0], self._edge_vertex(*parent_edges[side]), (i, j)))
                self.segments.extend((p, q, (i, j)) for p, q in zip(keys[start::2], keys[start + 1 :: 2]))

        def vertex(kind: str, a: int, b: int) -> tuple:
            return to_parent.get((kind, a, b)) or sub_vertex(kind, a, b)

        self._march(cases, vertex, (i, j))

    def assemble(self) -> tuple[list[tuple[list[tuple], set]], int]:
        adjacency: dict[tuple, list[int]] = {}
        for idx, (ka, kb, _cell) in enumerate(self.segments):
            adjacency.setdefault(ka, []).append(idx)
            adjacency.setdefault(kb, []).append(idx)
        used = [False] * len(self.segments)

        def extend(chain: list[tuple], cells: set):
            while not (chain[-1] == chain[0] and len(chain) > 2):
                tail = chain[-1]
                idx = next((k for k in adjacency.get(tail, []) if not used[k]), None)
                if idx is None:
                    return
                ka, kb, cell = self.segments[idx]
                used[idx] = True
                cells.add(cell)
                chain.append(kb if ka == tail else ka)

        loops: list[tuple[list[tuple], set]] = []
        open_chains = 0
        for start, (ka, kb, cell) in enumerate(self.segments):
            if used[start]:
                continue
            used[start] = True
            chain, cells = [ka, kb], {cell}
            extend(chain, cells)
            chain.reverse()
            extend(chain, cells)
            chain.reverse()
            if chain[0] == chain[-1] and len(chain) > 2:
                loops.append((chain, cells))
            else:
                open_chains += 1
        return loops, open_chains


def cell_array(cells) -> np.ndarray:
    """A set of (i, j) cells as the (k, 2) integer array `_certify_loops` takes."""
    return np.array(sorted(cells), dtype=np.int64).reshape(-1, 2)


def mesh(f, box=None, resolution: int = 256) -> tuple:
    """([(vertices, certified) per oval, in order], warnings, open chains)
    of `count_ovals(f, box, resolution)`, through the tuple-keyed mesher."""
    if box is None:
        box = default_box(f)
    warnings: list[str] = []
    for shift_num in range(17):
        lattice = _box_lattice(box, resolution, shift_num)
        signs, rows = _sign_grid(f, *lattice)
        if signs is not None:
            break
    else:
        raise DegenerateInput("could not shift the lattice off the curve")
    if shift_num:
        warnings.append(f"lattice shifted {shift_num} time(s) to avoid exact zeros at nodes")
    mesher = TupleMesher(f, lattice, signs, rows)
    mesher.run()
    loops, open_chains = mesher.assemble()
    warnings.extend(mesher.warnings)
    if open_chains:
        warnings.append(f"{open_chains} open chain(s) reached the search boundary")
    proven = _certify_loops([cell_array(cells) for _, cells in loops], _LatticeLines(f, lattice, signs, rows))
    ovals = []
    for (chain, cells), ok in zip(loops, proven):
        verts = [mesher.vertex_pos[k] for k in chain]
        ovals.append((verts, ok and not any(c in mesher.uncertified_cells for c in cells)))
    ovals.sort(key=lambda o: (min(v[0] for v in o[0]), min(v[1] for v in o[0])))
    return ovals, warnings, open_chains
