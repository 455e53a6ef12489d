"""Real ovals of plane curves: certified counting and numeric tracing.

Topology comes from exact signs: grid nodes are rational, and every sign
is proven.  The scaled integer values are computed in int64 when a proven
bound says they cannot overflow; otherwise a float64 Horner decides each
sign whose value clears a rigorous rounding-error bound, and every other
node is evaluated in exact integers (a filtered predicate in the sense of
Shewchuk, 1997).  Floating point only places vertices inside cells.
Ambiguous cells are resolved by subdivision, never by a midpoint
heuristic: a cell's sub-lattice is again an integer lattice, evaluated the
same way as the coarse grid; when depth runs out the affected ovals are
reported uncertified with a warning.  Uncrossed cell edges of each loop are proven
zero-free by Sturm counts, one chain per lattice line, on the same integer
rows that give the signs.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable
from dataclasses import dataclass, field as dfield
from fractions import Fraction

import numpy as np

from .errors import DegenerateInput, PreconditionError, UncertifiedResult
from .gaussian import ONE
from .polyring import MultiPoly, _specialize_keeping, leading_form
from .uniroots import count_real_roots, sturm_counter, ueval, utrim

MAX_SUBDIVISION_DEPTH = 6
_INT64_SAFE = 1 << 62
_BEYOND_FLOAT = "beyond float range (magnitude above 1.8e308)"


# -- rational boxes ----------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    x_lo: Fraction
    x_hi: Fraction
    y_lo: Fraction
    y_hi: Fraction

    @staticmethod
    def square(b) -> "Box":
        b = Fraction(b)
        return Box(-b, b, -b, b)

    def to_dict(self) -> dict:
        return {
            "x_lo": str(self.x_lo),
            "x_hi": str(self.x_hi),
            "y_lo": str(self.y_lo),
            "y_hi": str(self.y_hi),
        }


@dataclass
class Oval:
    vertices: list[tuple[float, float]]
    certified: bool

    def to_dict(self) -> dict:
        return {"vertex_count": len(self.vertices), "certified": self.certified}


@dataclass
class OvalSet:
    box: Box
    resolution: int
    ovals: list[Oval] = dfield(default_factory=list)
    warnings: list[str] = dfield(default_factory=list)
    open_chains: int = 0

    @property
    def count(self) -> int:
        return len(self.ovals)

    @property
    def certified_count(self) -> int:
        return sum(1 for o in self.ovals if o.certified)

    def to_dict(self) -> dict:
        return {
            "box": self.box.to_dict(),
            "resolution": self.resolution,
            "count": self.count,
            "certified_count": self.certified_count,
            "ovals": [o.to_dict() for o in self.ovals],
            "warnings": self.warnings,
            "open_chains": self.open_chains,
        }


# -- integer-scaled polynomial data --------------------------------------------------


class _IntPoly:
    """f scaled to integer coefficients; exact evaluation on lattice points.

    Lattice x_i = (ax + i*sx)/dx, y_j = (ay + j*sy)/dy.  The stored value at
    a node is f * lcm * dx^degx * dy^degy, an integer whose sign equals
    sign(f); lcm is f's denominator and the terms are its numerators.
    """

    def __init__(self, f: MultiPoly):
        if f.arity != 2:
            raise PreconditionError("expected an affine curve")
        if not f.has_real_coefficients():
            raise PreconditionError("real coefficients required")
        self.degx = max(f.degree_in(0), 0)
        self.degy = max(f.degree_in(1), 0)
        self.terms = [(a, b, c) for (a, b), (c, _) in f.num.items()]
        self.lcm = f.den

    def transposed(self) -> "_IntPoly":
        """The same scaled polynomial with x and y exchanged, so its rows are
        the columns x = x_i of this one."""
        t = copy.copy(self)
        t.degx, t.degy = self.degy, self.degx
        t.terms = [(b, a, c) for a, b, c in self.terms]
        return t

    def row_coefficients(self, ny: int, dy_pows: list[int], dx_pows: list[int]) -> list[int]:
        """Integer Horner coefficients in the x-lattice index for one row."""
        ny_pows = [1] * (self.degy + 1)
        for k in range(1, self.degy + 1):
            ny_pows[k] = ny_pows[k - 1] * ny
        u = [0] * (self.degx + 1)
        for a, b, c in self.terms:
            u[a] += c * ny_pows[b] * dy_pows[self.degy - b]
        return [u[a] * dx_pows[self.degx - a] for a in range(self.degx + 1)]


def _lattice(lo: Fraction, hi: Fraction, n: int) -> tuple[int, int, int]:
    """(a, s, d) with node_i = (a + i*s)/d for i in 0..n."""
    step = (hi - lo) / n
    d = lo.denominator * step.denominator // math.gcd(lo.denominator, step.denominator)
    a = int(lo * d)
    s = int(step * d)
    return a, s, d


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for binary64, u = 2^-53."""
    u = 2.0**-53
    return k * u / (1 - k * u)


def _crossing_nodes(signs: np.ndarray) -> np.ndarray:
    """Mask of the nodes with a 4-neighbour of the other sign."""
    h = signs[:, :-1] * signs[:, 1:] < 0
    v = signs[:-1, :] * signs[1:, :] < 0
    mask = np.zeros(signs.shape, dtype=bool)
    mask[:, :-1] |= h
    mask[:, 1:] |= h
    mask[:-1, :] |= v
    mask[1:, :] |= v
    return mask


def _filtered_signs(rows: list[list[int]], nx: list[int]) -> np.ndarray:
    """Exact signs of the row polynomials rows[j] at the abscissae nx[i].

    A float64 Horner value p^ with the running bound M^ = Horner(|fl(w)|, |x|)
    satisfies |p^ - p| <= gamma_{2d+1} M <= 2 gamma_{2d+2} M^ (Higham,
    Accuracy and Stability of Numerical Algorithms, 5.1; the extra rounding
    is that of the coefficients), so its sign is taken when |p^| exceeds that
    bound and both are finite.  Every other node, every row whose
    coefficients overflow a float, and the whole grid when an abscissa is not
    exact in float64 are evaluated by the exact integer Horner.
    """
    degx = len(rows[0]) - 1
    signs = np.zeros((len(rows), len(nx)), dtype=np.int8)
    exact = np.ones(signs.shape, dtype=bool)
    if max(abs(nx[0]), abs(nx[-1])) < 1 << 53:
        xs = np.array(nx, dtype=np.float64)
        coeffs = np.zeros((len(rows), degx + 1))
        for j, w in enumerate(rows):
            try:
                coeffs[j] = [float(c) for c in w]
            except OverflowError:
                coeffs[j] = np.inf  # M^ is infinite: the whole row goes to the exact Horner
        p = np.zeros(signs.shape)
        m = np.zeros(signs.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for a in range(degx, -1, -1):
                p = p * xs + coeffs[:, a : a + 1]
                m = m * np.abs(xs) + np.abs(coeffs[:, a : a + 1])
            decided = np.isfinite(p) & np.isfinite(m) & (np.abs(p) > 2 * _gamma(2 * degx + 2) * m)
        signs[decided] = np.sign(p[decided])
        exact = ~decided
    for j, i in zip(*(k.tolist() for k in np.nonzero(exact))):
        v = ueval(rows[j], nx[i])
        signs[j, i] = 0 if v == 0 else (1 if v > 0 else -1)
    return signs


def _box_lattice(box: Box, resolution: int, shift: int) -> tuple[int, int, int, int, int, int, int]:
    """(ax, sx, dx, ay, sy, dy, n): a lattice one step larger than the box on
    every side, shifted by shift/257 and shift/251 of a step to dodge exact
    zeros at nodes."""
    sx = (box.x_hi - box.x_lo) / resolution
    sy = (box.y_hi - box.y_lo) / resolution
    delta_x = sx * shift / Fraction(257)
    delta_y = sy * shift / Fraction(251)
    n = resolution + 2
    return (
        *_lattice(box.x_lo - sx + delta_x, box.x_hi + sx + delta_x, n),
        *_lattice(box.y_lo - sy + delta_y, box.y_hi + sy + delta_y, n),
        n,
    )


def _sign_grid(ip: _IntPoly, ax: int, sx: int, dx: int, ay: int, sy: int, dy: int, n: int):
    """Exact signs of f at the (n+1)^2 lattice nodes, and float values of f.

    Both arrays are indexed [j][i].  When a proven bound says int64 cannot
    overflow, the scaled integer values are computed in int64 and every node
    gets a float value.  Otherwise the signs come from a filtered float
    Horner with an exact integer fallback (`_filtered_signs`), and float
    values are computed only at nodes with a 4-neighbour of the other sign,
    the only ones the mesher reads; each is the exact integer value divided
    by lcm * dx^degx * dy^degy, correctly rounded.  Every other value is NaN.
    """
    dx_pows = [dx**k for k in range(ip.degx + 1)]
    dy_pows = [dy**k for k in range(ip.degy + 1)]
    nx_max = max(abs(ax), abs(ax + n * sx))
    # conservative magnitude bound for the row Horner
    coef_bound = sum(abs(c) for _, _, c in ip.terms)
    ny_max = max(abs(ay), abs(ay + n * sy))
    bound = coef_bound * max(ny_max, 1) ** ip.degy * max(dy, 1) ** ip.degy
    bound *= max(dx, 1) ** ip.degx
    bound *= max(nx_max, 1) ** ip.degx * (ip.degx + 1)
    rows = [ip.row_coefficients(ay + j * sy, dy_pows, dx_pows) for j in range(n + 1)]
    if bound < _INT64_SAFE:
        nx = ax + sx * np.arange(n + 1, dtype=np.int64)
        signs = np.zeros((n + 1, n + 1), dtype=np.int8)
        float_vals = np.zeros((n + 1, n + 1), dtype=np.float64)
        scale = float(ip.lcm) * float(dx) ** ip.degx * float(dy) ** ip.degy
        for j, w in enumerate(rows):
            acc = np.full(n + 1, w[ip.degx], dtype=np.int64)
            for a in range(ip.degx - 1, -1, -1):
                acc = acc * nx + w[a]
            signs[j] = np.sign(acc)
            float_vals[j] = acc.astype(np.float64) / scale
        return signs, float_vals
    nx = [ax + sx * i for i in range(n + 1)]
    signs = _filtered_signs(rows, nx)
    denom = ip.lcm * dx_pows[-1] * dy_pows[-1]
    float_vals = np.full((n + 1, n + 1), np.nan)
    for j, i in zip(*(k.tolist() for k in np.nonzero(_crossing_nodes(signs)))):
        try:
            float_vals[j, i] = ueval(rows[j], nx[i]) / denom
        except OverflowError:
            raise UncertifiedResult(f"a value of f at a lattice node is {_BEYOND_FLOAT}") from None
    return signs, float_vals


# -- exact rational interval arithmetic ----------------------------------------------


def _interval_pow(lo: Fraction, hi: Fraction, e: int) -> tuple[Fraction, Fraction]:
    if e == 0:
        return Fraction(1), Fraction(1)
    if e % 2 == 1 or lo >= 0:
        return lo**e, hi**e
    if hi <= 0:
        return hi**e, lo**e
    return Fraction(0), max(lo**e, hi**e)


def _interval_eval(coeffs: list[Fraction], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds of the polynomial with coefficients `coeffs` (low to high) on
    [lo, hi], term by term."""
    lo_total, hi_total = Fraction(0), Fraction(0)
    for k, c in enumerate(coeffs):
        tlo, thi = _interval_pow(lo, hi, k)
        if c >= 0:
            lo_total += c * tlo
            hi_total += c * thi
        else:
            lo_total += c * thi
            hi_total += c * tlo
    return lo_total, hi_total


class _LatticeLines:
    """Exact proofs (Sturm counts) that f has no zero on a lattice edge.

    f restricted to an edge depends only on the edge's line, so each line
    gets one Sturm chain, and its sign variations are memoized per node.  A
    horizontal line is a row of `_IntPoly`, a vertical one a row of its
    transpose: a positive multiple of f on the line as a polynomial in the
    integer lattice coordinate (nx = dx*x or ny = dy*y), so edges are counted
    between integer endpoints.  Endpoints are lattice nodes with nonzero
    exact sign, so a zero count on the half-open interval certifies the
    whole closed edge.
    """

    def __init__(self, ip: _IntPoly, lattice: tuple):
        ax, sx, dx, ay, sy, dy, _ = lattice
        dx_pows = [dx**k for k in range(ip.degx + 1)]
        dy_pows = [dy**k for k in range(ip.degy + 1)]
        # kind: (rows, the lines' offset and step, the edges' offset and step, row powers)
        self._axes = {
            "h": (ip, ay, sy, ax, sx, dy_pows, dx_pows),
            "v": (ip.transposed(), ax, sx, ay, sy, dx_pows, dy_pows),
        }
        self._counters: dict[tuple[str, int], Callable | None] = {}

    def edge_is_zero_free(self, kind: str, i: int, j: int) -> bool:
        rows, a_line, s_line, a_edge, s_edge, line_pows, edge_pows = self._axes[kind]
        line, k = (j, i) if kind == "h" else (i, j)
        if (kind, line) not in self._counters:
            coeffs = utrim(rows.row_coefficients(a_line + line * s_line, line_pows, edge_pows))
            # None: f vanishes identically on the line
            self._counters[kind, line] = sturm_counter(coeffs) if coeffs else None
        count = self._counters[kind, line]
        lo = a_edge + k * s_edge
        return count is not None and count(lo, lo + s_edge) == 0


# -- compactness and the default box --------------------------------------------------


def _top_form_on(L: MultiPoly, var: int) -> list[Fraction]:
    """Trimmed real coefficients of the top form L on the directions with the
    other coordinate 1: L(1, t) for var 1, L(t, 1) for var 0."""
    return [c.re for c in _specialize_keeping(L, var, [ONE, ONE])]


def compactness_check(f: MultiPoly) -> bool:
    """True iff the top-degree form has no real zero direction, which forces
    the whole real locus into a bounded region."""
    if not f.has_real_coefficients():
        raise PreconditionError("real coefficients required")
    if f.is_constant():
        raise PreconditionError("curve must be nonconstant")
    L = leading_form(f)
    restriction = _top_form_on(L, 1)
    if len(restriction) < int(L.degree) + 1:
        return False  # no y^n term: the direction (0 : 1) is a real zero of the top form
    return count_real_roots(restriction) == 0


def _min_abs_on_interval(coeffs: list[Fraction], lo: Fraction, hi: Fraction, depth: int = 14) -> Fraction:
    """Positive lower bound for |poly| on [lo, hi]; poly must be zero-free there."""

    def rec(a: Fraction, b: Fraction, d: int) -> Fraction:
        vlo, vhi = _interval_eval(coeffs, a, b)
        if vlo > 0:
            return vlo
        if vhi < 0:
            return -vhi
        if d == 0:
            raise DegenerateInput("could not bound the top form away from zero")
        m = (a + b) / 2
        return min(rec(a, m, d - 1), rec(m, b, d - 1))

    return rec(lo, hi, depth)


def default_box(f: MultiPoly) -> Box:
    """A rigorous bounding box: beyond it the top form dominates the rest."""
    if not compactness_check(f):
        raise PreconditionError("real locus is unbounded; supply a box explicitly")
    L = leading_form(f)
    n = int(f.degree)
    lam = min(_min_abs_on_interval(_top_form_on(L, var), Fraction(-1), Fraction(1)) for var in (1, 0))
    lower_mass: dict[int, Fraction] = {}
    for (a, b), c in f.terms.items():
        d = a + b
        if d < n:
            lower_mass[d] = lower_mass.get(d, Fraction(0)) + abs(c.re)
    B = Fraction(2)
    while True:
        slack = sum(mass * B**d for d, mass in lower_mass.items())
        if lam * B**n > slack:
            return Box(-B, B, -B, B)
        B *= 2
        if B > 2**40:
            raise DegenerateInput("failed to find a bounding box")


# -- marching squares -----------------------------------------------------------------

# segments per 4-bit corner sign pattern (c0=bl, c1=br, c2=tr, c3=tl; bit = negative)
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
_AMBIGUOUS = (5, 10)


def _cell_edges(i: int, j: int) -> dict[str, tuple]:
    return {
        "B": ("h", i, j),
        "T": ("h", i, j + 1),
        "L": ("v", i, j),
        "R": ("v", i + 1, j),
    }


def _cases(signs: np.ndarray) -> np.ndarray:
    """The corner sign pattern of every cell of a sign grid indexed [j][i]."""
    neg = (signs < 0).astype(np.int8)
    return neg[:-1, :-1] + 2 * neg[:-1, 1:] + 4 * neg[1:, 1:] + 8 * neg[1:, :-1]


def _edge_point(kind: str, x: float, y: float, step: float, va, vb) -> tuple[float, float]:
    """Zero of the linear interpolant on the edge of length `step` from (x, y)
    along x ("h") or y ("v"), where f takes the values va and vb at its ends.
    Integer values give t = va/(va - vb) correctly rounded."""
    t = va / (va - vb) if va != vb else 0.5
    return (x + t * step, y) if kind == "h" else (x, y + t * step)


class _Mesher:
    """Extracts closed contours from exact signs on an integer lattice.

    The lattice is (ax, sx, dx, ay, sy, dy, n) as from `_box_lattice`; the
    m x m sub-lattice of cell (i, j) is again an integer lattice, so
    subdivision takes its signs from `_sign_grid` and its values from the
    same integer Horner.
    """

    def __init__(self, ip: _IntPoly, lattice: tuple, grids):
        self.ip = ip
        self.lattice = lattice
        self.signs, self.fvals = grids
        ax, sx, dx, ay, sy, dy, n = lattice
        self.xs = [(ax + i * sx) / dx for i in range(n + 1)]  # nodes, correctly rounded
        self.ys = [(ay + j * sy) / dy for j in range(n + 1)]
        self.segments: list[tuple] = []
        self.vertex_pos: dict[tuple, tuple[float, float]] = {}
        self.uncertified_cells: set[tuple[int, int]] = set()
        self.warnings: list[str] = []
        self.crossed_edges: set[tuple] = set()

    def _edge_vertex(self, kind: str, i: int, j: int) -> tuple:
        key = (kind, i, j)
        if key not in self.vertex_pos:
            i2, j2 = (i + 1, j) if kind == "h" else (i, j + 1)
            step = self.xs[i2] - self.xs[i] if kind == "h" else self.ys[j2] - self.ys[j]
            va, vb = self.fvals[j][i], self.fvals[j2][i2]
            self.vertex_pos[key] = _edge_point(kind, self.xs[i], self.ys[j], step, va, vb)
        self.crossed_edges.add(key)
        return key

    def run(self):
        self._march(_cases(self.signs), self._edge_vertex)

    def _march(self, cases: np.ndarray, vertex: Callable, cell: tuple[int, int] | None = None):
        """Emit the segments of every crossed cell; `vertex(kind, a, b)` names the
        crossing on an edge.  On the coarse grid each segment is tagged with its
        cell and ambiguous cells are subdivided; a subgrid has no ambiguous cell
        and tags its segments with the parent `cell`."""
        js, iis = np.nonzero((cases != 0) & (cases != 15))
        for j, i in zip(js.tolist(), iis.tolist()):
            pattern = int(cases[j, i])
            if pattern in _AMBIGUOUS:
                self._subdivide_cell(i, j)
                continue
            edges = _cell_edges(i, j)
            for a, b in _SEGMENTS[pattern]:
                self.segments.append((vertex(*edges[a]), vertex(*edges[b]), cell or (i, j)))

    # ---- ambiguous-cell subdivision

    def _subdivide_cell(self, i: int, j: int):
        ax, sx, dx, ay, sy, dy, _ = self.lattice
        for depth in range(1, MAX_SUBDIVISION_DEPTH + 1):
            m = 1 << depth
            sub = (m * (ax + i * sx), sx, m * dx, m * (ay + j * sy), sy, m * dy, m)
            signs, _ = _sign_grid(self.ip, *sub)
            if (signs == 0).any():
                continue  # a finer lattice node hit the curve; deepen
            cases = _cases(signs)
            if not np.isin(cases, _AMBIGUOUS).any():
                self._emit_subgrid(i, j, sub, signs, cases)
                return
        self.uncertified_cells.add((i, j))
        self.warnings.append(
            f"cell ({i},{j}) still ambiguous at depth {MAX_SUBDIVISION_DEPTH}; "
            "count may be unreliable there"
        )
        # fall back to one diagonal pairing so chains still close
        edges = _cell_edges(i, j)
        for a, b in (("B", "L"), ("T", "R")):
            self.segments.append((self._edge_vertex(*edges[a]), self._edge_vertex(*edges[b]), (i, j)))

    def _emit_subgrid(self, i: int, j: int, sub: tuple, signs: np.ndarray, cases: np.ndarray):
        ax, sx, dx, ay, sy, dy, m = sub
        dx_pows = [dx**k for k in range(self.ip.degx + 1)]
        dy_pows = [dy**k for k in range(self.ip.degy + 1)]

        def value(a: int, b: int) -> int:
            return ueval(self.ip.row_coefficients(ay + b * sy, dy_pows, dx_pows), ax + a * sx)

        def sub_vertex(kind: str, a: int, b: int) -> tuple:
            key = ("s", i, j, kind, a, b)
            if key not in self.vertex_pos:
                a2, b2 = (a + 1, b) if kind == "h" else (a, b + 1)
                step = sx / dx if kind == "h" else sy / dy
                x, y = (ax + a * sx) / dx, (ay + b * sy) / dy
                self.vertex_pos[key] = _edge_point(kind, x, y, step, value(a, b), value(a2, b2))
            return key

        # a side crossed once maps to its parent edge's vertex; a side crossed
        # more often is chord-paired locally
        parent_edges = _cell_edges(i, j)
        sides = {  # side: (edge kind, its index in the sub-lattice, its signs)
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
                # leave one crossing to link with the coarse neighbor if it saw one
                start = len(keys) % 2
                if start:
                    self.segments.append((keys[0], self._edge_vertex(*parent_edges[side]), (i, j)))
                self.segments.extend((p, q, (i, j)) for p, q in zip(keys[start::2], keys[start + 1 :: 2]))

        def vertex(kind: str, a: int, b: int) -> tuple:
            return to_parent.get((kind, a, b)) or sub_vertex(kind, a, b)

        self._march(cases, vertex, (i, j))

    # ---- chain assembly

    def assemble(self) -> tuple[list[tuple[list[tuple], set]], int]:
        """(closed chains, each with the cells it crosses; number of open chains)."""
        adjacency: dict[tuple, list[int]] = {}
        for idx, (ka, kb, _cell) in enumerate(self.segments):
            adjacency.setdefault(ka, []).append(idx)
            adjacency.setdefault(kb, []).append(idx)
        used = [False] * len(self.segments)

        def extend(chain: list[tuple], cells: set):
            """Append unused segments at the chain's end until it closes or stops."""
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


def count_ovals(
    f: MultiPoly,
    box: Box | None = None,
    resolution: int = 256,
) -> OvalSet:
    """Count closed real components by adaptive marching squares on exact signs."""
    if resolution < 2:
        raise PreconditionError("resolution must be at least 2")
    ip = _IntPoly(f)
    if box is None:
        box = default_box(f)
    warnings: list[str] = []
    shift_num = 0
    while True:
        lattice = _box_lattice(box, resolution, shift_num)
        signs, fvals = _sign_grid(ip, *lattice)
        if not (signs == 0).any():
            break
        shift_num += 1
        if shift_num > 16:
            raise DegenerateInput("could not shift the lattice off the curve")
    if shift_num:
        warnings.append(f"lattice shifted {shift_num} time(s) to avoid exact zeros at nodes")

    mesher = _Mesher(ip, lattice, (signs, fvals))
    mesher.run()
    loops, open_chains = mesher.assemble()
    warnings.extend(mesher.warnings)
    if open_chains:
        warnings.append(f"{open_chains} open chain(s) reached the search boundary")

    result = OvalSet(box=box, resolution=resolution, warnings=warnings, open_chains=open_chains)
    lines = _LatticeLines(ip, lattice)
    for chain, cells in loops:
        verts = [mesher.vertex_pos[k] for k in chain]
        ok = not any(c in mesher.uncertified_cells for c in cells) and _certify_loop(mesher, cells, lines)
        result.ovals.append(Oval(verts, ok))
    result.ovals.sort(key=lambda o: (min(v[0] for v in o.vertices), min(v[1] for v in o.vertices)))
    return result


def _certify_loop(mesher: _Mesher, cells, lines: _LatticeLines) -> bool:
    for i, j in cells:
        for key in _cell_edges(i, j).values():
            if key not in mesher.crossed_edges and not lines.edge_is_zero_free(*key):
                return False
    return True


# -- numeric tracing -------------------------------------------------------------------


def _horner_expr(coeffs: dict[int, str], var: str) -> str:
    """Horner form of sum coeffs[k] * var**k; an absent power costs one product."""
    top = max(coeffs)
    expr = coeffs[top]
    for k in range(top - 1, -1, -1):
        expr = f"({expr})*{var}" + (f" + {coeffs[k]}" if k in coeffs else "")
    return expr


def _horner(f: MultiPoly) -> Callable:
    """Float evaluator of f: one straight-line Horner expression in x over
    Horner rows in y, compiled once.

    Each coefficient is the correctly rounded float of f's, written by
    float.__repr__, which reads back to the same float.  The expression uses
    only + and *, so it takes Python floats or float64 arrays and gives the
    same bits on both; a constant is written c + 0.0*x, so arrays keep their
    shape.
    """
    if not f.has_real_coefficients():
        raise PreconditionError("real coefficients required")
    rows: dict[int, dict[int, str]] = {}
    for (a, b), c in f.terms.items():
        try:
            rows.setdefault(a, {})[b] = repr(float(c.re))
        except OverflowError:
            raise UncertifiedResult(f"a coefficient is {_BEYOND_FLOAT}") from None
    if f.is_constant():
        expr = f"{rows.get(0, {}).get(0, '0.0')} + 0.0*x"
    else:
        expr = _horner_expr({a: f"({_horner_expr(row, 'y')})" for a, row in rows.items()}, "x")
    return eval(f"lambda x, y: {expr}")


def _horner_with_gradient(f: MultiPoly) -> tuple[Callable, Callable, Callable]:
    return _horner(f), _horner(f.partial(0)), _horner(f.partial(1))


_NEWTON_TOL = 1e-13
_NEWTON_ITER = 60


def newton_project(f: MultiPoly, pt, tol: float = _NEWTON_TOL, max_iter: int = _NEWTON_ITER):
    """Project a point onto f = 0 along the gradient; None when it fails."""
    out, ok = _project_all(_horner_with_gradient(f), np.array([pt], dtype=np.float64), tol, max_iter)
    return (float(out[0, 0]), float(out[0, 1])) if ok[0] else None


def _project_all(evaluators, seeds: np.ndarray, tol: float = _NEWTON_TOL, max_iter: int = _NEWTON_ITER):
    """`newton_project` on every row of an (n, 2) array at once, with the bits
    of a scalar float loop (IEEE float64 throughout): (points, converged);
    a row that fails (squared gradient below 1e-24) keeps its seed."""
    ev, gx, gy = evaluators
    out, ok = seeds.copy(), np.zeros(len(seeds), dtype=bool)
    live = np.arange(len(seeds))  # rows still iterating
    x, y = seeds[:, 0], seeds[:, 1]
    with np.errstate(all="ignore"):  # NaN and inf follow the scalar rules, silently
        for _ in range(max_iter):
            if not live.size:
                break
            v = ev(x, y)
            dx, dy = gx(x, y), gy(x, y)
            g2 = dx * dx + dy * dy
            going = ~(g2 < 1e-24)
            done = going & (np.abs(v) <= tol * np.fmax(1.0, np.sqrt(g2)))
            out[live[done], 0] = x[done]
            out[live[done], 1] = y[done]
            ok[live[done]] = True
            keep = going & ~done
            live, v, dx, dy, g2 = live[keep], v[keep], dx[keep], dy[keep], g2[keep]
            x = x[keep] - v * dx / g2
            y = y[keep] - v * dy / g2
    return out, ok


def trace_oval(
    f: MultiPoly,
    seed: tuple[float, float],
    spacing: float = 1.5e-3,
    tol: float = 1e-12,
    max_steps: int = 2_000_000,
) -> list[tuple[float, float]]:
    """Predictor-corrector trace of the closed component through `seed`.

    Every vertex satisfies |f| < tol * |grad f|; the polyline closes exactly
    (last vertex = first).  Raises on singular approach or failure to close.
    """
    ev, gx, gy = evaluators = _horner_with_gradient(f)
    out, ok = _project_all(evaluators, np.array([seed], dtype=np.float64), tol)
    if not ok[0]:
        raise PreconditionError("seed failed to project onto the curve")
    x, y = start = float(out[0, 0]), float(out[0, 1])
    pts = [(x, y)]
    h = spacing
    for step in range(max_steps):
        dx, dy = gx(x, y), gy(x, y)
        norm = math.hypot(dx, dy)
        if norm < 1e-9:
            raise DegenerateInput("trace approached a singular point of the curve")
        tx, ty = -dy / norm, dx / norm
        px, py = x + h * tx, y + h * ty
        # corrector: Newton along the gradient
        cx, cy = px, py
        for _ in range(12):
            v = ev(cx, cy)
            ddx, ddy = gx(cx, cy), gy(cx, cy)
            g2 = ddx * ddx + ddy * ddy
            if g2 < 1e-18:
                raise DegenerateInput("trace approached a singular point of the curve")
            if abs(v) <= tol * math.sqrt(g2):
                break
            cx -= v * ddx / g2
            cy -= v * ddy / g2
        else:
            h *= 0.5
            if h < spacing * 1e-6:
                raise DegenerateInput("corrector failed; step size underflow")
            continue
        x, y = cx, cy
        pts.append((x, y))
        if step > 4 and math.hypot(x - start[0], y - start[1]) < 0.9 * h:
            pts[-1] = start
            return pts
        if h < spacing:
            h = min(spacing, h * 1.5)
    raise DegenerateInput("trace did not close within the step budget")


def refine_polyline(f: MultiPoly, pts) -> np.ndarray:
    """Insert curve-projected midpoints between consecutive vertices of a
    closed polyline, given and returned as an (n, 2) float array; a midpoint
    whose projection fails is kept as it is."""
    pts = np.asarray(pts, dtype=np.float64)
    out = np.empty((2 * len(pts) - 1, 2))
    out[0::2] = pts
    out[1::2] = _project_all(_horner_with_gradient(f), 0.5 * (pts[:-1] + pts[1:]))[0]
    return out
