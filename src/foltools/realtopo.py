"""Real ovals of plane curves: certified counting and numeric tracing.

Topology comes from exact signs: grid nodes are rational, and every sign
is proven.  A lattice's scaled integer values are P = Y W X, f's integer
weight matrix W between the power tables of the integer line coordinates.
Two float64 products decide each sign whose value clears a rigorous
rounding-error bound, and every other node is evaluated in exact integers
(a filtered predicate in the sense of Shewchuk, 1997).  The exact values
come from the lattice rows (`_LineRows`: f on one lattice line as an
integer polynomial in the edge coordinate), each row built the first time
it is read; the first exact zero at a node ends a lattice, which no
caller can use.  The mesher joins segments into chains of integer edge ids
and places no vertex until it is read: each vertex is the zero of the
linear interpolant on its edge, placed from the exact values of the same
rows (`_edge_points`), so no count or vertex sees the scale of f.  Counts
and certificates read only the chains, and the ovals' sort key reads the
vertices of each loop's least column and row (`_Mesher.sort_keys`).
Ambiguous cells are resolved by subdivision, never by a midpoint
heuristic: a cell's sub-lattice is again an integer lattice, evaluated the
same way as the coarse grid; when depth runs out the affected ovals are
reported uncertified with a warning.
The uncrossed cell edges of all loops are proven zero-free together
(`_certify_loops`, `_LatticeLines`), again as a filtered predicate: one
float pass per lattice axis takes each edge's Descartes coefficients as a
matrix product with a rigorous rounding bound, and each edge it cannot
prove gets an exact Sturm count on its line's row.
Numeric tracing sees f only at unit scale and puts every float point on
the curve with one Newton corrector (see the numeric tracing section).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from fractions import Fraction

import numpy as np

from .errors import DegenerateInput, PreconditionError, UncertifiedResult
from .polyring import MultiPoly, _specialize, is_squarefree, leading_form
from .uniroots import count_real_roots, sturm_counter, ueval, utrim

MAX_SUBDIVISION_DEPTH = 6
_BLOCK = 1 << 15  # entries of each buffer of the filtered float product
_BEYOND_FLOAT = "beyond float range (magnitude above 1.8e308)"


# -- rational boxes ----------------------------------------------------------------


class Box:
    __slots__ = _fields = ("x_lo", "x_hi", "y_lo", "y_hi")

    def __init__(self, x_lo: Fraction, x_hi: Fraction, y_lo: Fraction, y_hi: Fraction):
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = x_lo, x_hi, y_lo, y_hi

    def _key(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return self.x_lo, self.x_hi, self.y_lo, self.y_hi

    def __eq__(self, other) -> bool:
        return isinstance(other, Box) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @staticmethod
    def square(b) -> "Box":
        b = Fraction(b)
        return Box(-b, b, -b, b)


class Oval:
    """One closed chain of `count_ovals` and whether it is certified.

    `vertices` is the closed polyline, its last vertex equal to its first.
    It is placed on first read and kept: counting and `vertex_count` read
    only the chain, and `seed` places only the first vertex, so no vertex
    is placed that nothing reads.
    """

    _fields = ("vertex_count", "certified")

    def __init__(self, chain: list[int], certified: bool, mesher: "_Mesher"):
        self.chain, self.certified, self._mesher = chain, certified, mesher

    @property
    def vertex_count(self) -> int:
        return len(self.chain)

    @functools.cached_property
    def vertices(self) -> list[tuple[float, float]]:
        xy = self._mesher.place(np.array(self.chain))
        return list(zip(xy[:, 0].tolist(), xy[:, 1].tolist()))

    @property
    def seed(self) -> tuple[float, float]:
        """`vertices[0]`, placed alone: where a trace of the oval starts."""
        x, y = self._mesher.place(np.array(self.chain[:1]))[0].tolist()
        return x, y


class OvalSet:
    __slots__ = ("box", "resolution", "ovals", "warnings", "open_chains")
    _fields = __slots__ + ("count", "certified_count")

    def __init__(self, box: Box, resolution: int, warnings: list[str], open_chains: int):
        self.box, self.resolution, self.warnings, self.open_chains = box, resolution, warnings, open_chains
        self.ovals: list[Oval] = []

    @property
    def count(self) -> int:
        return len(self.ovals)

    @property
    def certified_count(self) -> int:
        return sum(1 for o in self.ovals if o.certified)


# -- integer lattice rows --------------------------------------------------------------


class _LineRows:
    """f on lattice lines as integer polynomials in the edge coordinate, each
    row built the first time it is read.

    `axis` is the variable the lines run along: 0 for the horizontal lines
    y = t/d_line, 1 for the vertical lines x = t/d_line, one per t in the
    range `lines`; `rows[l]` is the row of the line t = lines[l].  Entry a
    of a row is the coefficient of n^a, where n = d_edge times the axis
    variable; the row is f * den * d_edge^deg_edge * d_line^deg_line on the
    line, a positive integer multiple of f.  `weights[b][a]` is the
    coefficient of t^b n^a in that multiple: the lattice's integer weight
    matrix, whose product with the power tables of t and n is the multiple's
    value at every node (`_sign_grid`).
    """

    def __init__(self, f: MultiPoly, axis: int, lines: range, d_line: int, d_edge: int):
        deg_edge, deg_line = max(f.degree_in(axis), 0), max(f.degree_in(1 - axis), 0)
        self.weights = [[0] * (deg_edge + 1) for _ in range(deg_line + 1)]
        for e, (c, _) in f.num.items():
            a, b = e[axis], e[1 - axis]
            self.weights[b][a] = c * d_edge ** (deg_edge - a) * d_line ** (deg_line - b)
        self.lines = lines
        self._columns = [utrim([w[a] for w in self.weights]) for a in range(deg_edge + 1)]
        self._built: dict[int, list[int]] = {}

    def __getitem__(self, l: int) -> list[int]:
        row = self._built.get(l)
        if row is None:  # one Horner sum in the line coordinate per coefficient column
            t = self.lines[l]
            row = self._built[l] = [ueval(col, t) if col else 0 for col in self._columns]
        return row

    @functools.cached_property
    def powers(self) -> np.ndarray:
        """The float power table of the line coordinates up to the line
        degree (`_float_powers`), built on first use."""
        return _float_powers(self.lines, len(self.weights) - 1)


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


def _true_nodes(mask: np.ndarray, first_row: int = 0) -> list[tuple[int, int]]:
    """(j, i) of every True entry of a 2-D mask, row by row, as np.nonzero
    gives them, from the much cheaper flat index search; j counts from
    `first_row`, the row of the grid the mask's first row is."""
    cols = mask.shape[1]
    return [divmod(k, cols) for k in (np.flatnonzero(mask) + first_row * cols).tolist()]


def _float_powers(coords: range, deg: int) -> np.ndarray:
    """table[a, k] = fl(t_k^a) for the integers t_k in `coords`, by repeated
    products from t_k, each exact in float64 (|t_k| < 2^53); a column where
    a power overflowed is zero, and so is the whole table when some t_k is
    not exact."""
    exact = max(abs(coords[0]), abs(coords[-1])) < 1 << 53
    t = coords.start + coords.step * np.arange(len(coords), dtype=np.int64) if exact else np.zeros(len(coords))
    table = np.ones((deg + 1, len(coords)))
    for a in range(1, deg + 1):
        np.multiply(table[a - 1], t, out=table[a])
    # an overflowed power stays infinite in the top row
    table[:, ~(np.isfinite(table[-1]) & exact)] = 0.0
    return table


def _filtered_signs(rows: _LineRows, nx: range) -> np.ndarray | None:
    """Exact signs of the row polynomials rows[j] at the abscissae nx[i].

    The values are P = Y W X with Y[j, b] = ny_j^b (ny = rows.lines), W the
    integer weight matrix rows.weights and X[a, i] = nx_i^a.  In float64,
    Y^ and X^ come from repeated products of the exact ny_j and nx_i, W^ is
    W correctly rounded, and P^ = (Y^ W^) X^ is two matrix products; M^ =
    (|Y^| |W^|) |X^| likewise.  Term (a, b) of a node carries at most
    max(b - 1, 0) (power) + 1 (weight) + 1 (product) + deg_y (sum) roundings
    in Y^ W^ and max(a - 1, 0) + 1 + deg_x more in the second product (a
    product with the exact power 1 rounds nothing), so at most
    k = 2(deg_x + deg_y) + 1 in all, in whatever order either sum is taken
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1): |P^ - P|
    <= gamma_k M.  M^ is the same sums over nonnegative terms, so M^ >=
    (1 - gamma_k) M and the error is at most 2 gamma_{k+1} M^.  All values
    are integers, so nothing underflows, and a value that stays finite never
    overflowed on its way; the factor 2 leaves room for the rounding of the
    bound itself.  A node's sign is taken when both of its products are
    finite and |P^| exceeds that bound.  Rows and columns whose inputs are
    not finite (or whose abscissae are not exact) are zeroed before the
    products, so their nodes read P^ = M^ = 0 and no sign rests on NaN,
    infinity or an inexact abscissa.
    Every other node, and the whole grid when a weight is beyond float
    range, is evaluated by the exact integer Horner of its row, a block of
    rows at a time after that block's products.  A lattice with a node on
    the curve is of no use to any caller, so the first exact zero ends the
    work: the result is then None instead of the signs.
    """
    deg_y, deg_x = len(rows.weights) - 1, len(rows.weights[0]) - 1
    signs = np.zeros((len(rows.lines), len(nx)), dtype=np.int8)
    try:
        w = np.array([[float(c) for c in row] for row in rows.weights])
    except OverflowError:
        w = None  # a weight beyond float range: every node is evaluated exactly
    # a block of rows at a time into reused buffers: fresh full-grid float
    # arrays cost more than the arithmetic
    block = len(signs) if w is None else min(max(_BLOCK // len(nx), 1), len(signs))
    decided = np.zeros((block, len(nx)), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        if w is not None:
            ys, xs = rows.powers, _float_powers(nx, deg_x)
            yw, m_rows = ys.T @ w, np.abs(ys.T) @ np.abs(w)
            rows_ok = np.isfinite(yw).all(axis=1) & np.isfinite(m_rows).all(axis=1)
            yw[~rows_ok] = m_rows[~rows_ok] = 0.0
            ax_abs, scale = np.abs(xs), 2 * _gamma(2 * (deg_x + deg_y) + 2)
            p_buf, m_buf = np.empty((2, block, len(nx)))
        for lo in range(0, len(signs), block):
            hi = min(lo + block, len(signs))
            d = decided[: hi - lo]
            if w is not None:
                p, m = p_buf[: hi - lo], m_buf[: hi - lo]
                np.matmul(yw[lo:hi], xs, out=p)
                np.matmul(m_rows[lo:hi], ax_abs, out=m)
                signs[lo:hi] = (p > 0).view(np.int8) - (p < 0).view(np.int8)  # undecided nodes are redone below
                m *= scale
                np.greater(np.abs(p, out=p), m, out=d)  # False where m is infinite or NaN
                d &= np.isfinite(p)
            for j, i in _true_nodes(~d, lo):
                v = ueval(rows[j], nx[i])
                if v == 0:
                    return None
                signs[j, i] = 1 if v > 0 else -1
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


def _node_range(a: int, s: int, n: int) -> range:
    """The integer lattice coordinates a + k*s, k = 0..n."""
    return range(a, a + (n + 1) * s, s)


def _sign_grid(f: MultiPoly, ax: int, sx: int, dx: int, ay: int, sy: int, dy: int, n: int):
    """(signs, rows): the exact signs of f at the (n+1)^2 lattice nodes,
    indexed [j][i], from the filtered product of `_filtered_signs` (None
    when a node is a zero of f), and the `_LineRows` of the horizontal
    lattice lines that give them."""
    rows = _LineRows(f, 0, _node_range(ay, sy, n), dy, dx)
    return _filtered_signs(rows, _node_range(ax, sx, n)), rows


@functools.lru_cache(maxsize=None)
def _descartes_binomials(d: int) -> np.ndarray:
    """G[a, c, i] = C(a, c) C(d - a + c, i) as an object array, built once per degree."""
    ranks = range(d + 1)
    return np.array([[[math.comb(a, c) * math.comb(d - a + c, i) for i in ranks] for c in ranks] for a in ranks], dtype=object)


def _descartes_kernel(weights: list[list[int]], s: int) -> np.ndarray:
    """V[i, b*C + c] (C = len(weights[0])), exact integers in an object
    array: for the edge from p to p + s of the line t, D_i = sum over (b, c)
    of t^b p^c V[i, b*C + c] are the coefficients of (1 + u)^d row(p + s/(1 + u)),
    row the line's polynomial sum_{a,b} weights[b][a] t^b n^a and d = C - 1.

    With n = p + s/(1 + u), (1 + u)^d n^a = sum_c C(a, c) p^c s^(a-c) (1 + u)^(d-a+c),
    so V = W K with K[a, c, i] = G[a, c, i] s^(a-c) (`_descartes_binomials`;
    G is 0 for c > a).  u > 0 maps onto the open edge (p, p + s), so the
    sign variations of D bound the roots there, with multiplicity and of
    their parity (Descartes' rule of signs, as Collins & Akritas, SYMSAC
    1976, use it), and D_0 = row(p + s), D_d = row(p) are the values at the
    ends.
    """
    d = len(weights[0]) - 1
    powers = np.array([s**e for e in range(d + 1)], dtype=object)
    shift = np.subtract.outer(np.arange(d + 1), np.arange(d + 1)).clip(0)  # a - c where G is not 0
    k = _descartes_binomials(d) * powers[shift][:, :, None]
    v = np.array(weights, dtype=object) @ k.reshape(d + 1, -1)  # [b, c*I + i]
    return v.reshape(len(weights), d + 1, d + 1).transpose(2, 0, 1).reshape(d + 1, -1)


class _LatticeLines:
    """Exact proofs that f has no zero on uncrossed edges of lattice lines,
    all of one axis's edges at once.

    No node of the lattice may be a zero of f (`count_ovals` shifts the
    lattice until none is).  An edge runs from node p to node p + s of the
    line t, in the integer coordinates of the line's row (`_LineRows`: a
    positive multiple of f on the line, nx = dx*x along a horizontal line,
    ny = dy*y along a vertical one).  It is zero-free when its Descartes
    coefficients D (`_descartes_kernel`) are all nonzero and of one sign:
    D_0 and D_d are the row's values at its ends, and no sign variation
    leaves no root inside.

    D = V Z, Z[b*C + c] = t^b p^c, is decided as a filtered predicate, the
    way `_filtered_signs` decides node signs.  In float64, Z^ comes from the
    power tables of the exact t and p (`_float_powers`, max(b - 1, 0) and
    max(c - 1, 0) roundings) and one product, V^ is V correctly rounded,
    and D^ = V^ Z^ and M^ = |V^| |Z^| are two matrix products of N = B*C
    terms (B = deg_line + 1, C = d + 1): each term carries at most B + C +
    N - 2 roundings, fewer than k = B + C + N, in whatever order the sums
    are taken (Higham, Accuracy and Stability of Numerical Algorithms, 3.1),
    so |D^ - D| <= gamma_k M with M the exact |V| |Z|.  M^ is the same sums
    over nonnegative terms, so M^ >= (1 - gamma_k) M and the error is at
    most 2 gamma_{k+1} M^, the factor 2 leaving room for the rounding of
    the bound itself.  All values are integers, so nothing underflows.  An
    edge is proven when every D^_i is finite, has the sign of D^_0 and
    exceeds that bound.  An edge whose coordinates are not exact in float64
    or whose powers overflow reads Z^ = 0 and is not proven; nor is any
    edge of an axis whose V is beyond float range.  Every edge the floats
    do not prove gets an exact Sturm count of its own, on one chain per
    line (`sturm_counter`).

    The horizontal rows are the `_LineRows` of `_sign_grid`; the vertical
    ones are a second `_LineRows`, so each row is built once, when an
    exact count first reads it.
    """

    def __init__(self, f: MultiPoly, lattice: tuple, signs: np.ndarray | None, rows: _LineRows):
        if signs is None:
            raise ValueError("a lattice node is a zero of f; shift the lattice off the curve")
        self.lattice, self.signs = lattice, signs
        ax, sx, dx, ay, sy, dy, n = lattice
        self.rows = {"h": rows, "v": _LineRows(f, 1, _node_range(ax, sx, n), dx, dy)}
        self.along = {"h": (ax, sx), "v": (ay, sy)}  # (first node, step) in each line's edge coordinate
        self._tables: dict[str, tuple | None] = {}

    def _float_tables(self, kind: str) -> tuple | None:
        """(V^, |V^|, the bound's factor, t powers, p powers) of the kind's
        lines, or None when V is beyond float range; built on first use.
        The nodes along a horizontal line are the vertical lines, and the
        other way round, so the p powers are the other axis's t powers."""
        if kind not in self._tables:
            rows, across = self.rows[kind], self.rows["v" if kind == "h" else "h"]
            b, c = len(rows.weights), len(rows.weights[0])
            try:
                v = _descartes_kernel(rows.weights, self.along[kind][1]).astype(float)
            except OverflowError:
                self._tables[kind] = None
            else:
                self._tables[kind] = (v, np.abs(v), 2 * _gamma(b + c + b * c + 1), rows.powers, across.powers)
        return self._tables[kind]

    def float_proofs(self, kind: str, line: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Whether the float Descartes test proves each edge k of the line
        `line` (integer arrays) zero-free; False where it cannot tell."""
        tables = self._float_tables(kind)
        if tables is None:
            return np.zeros(len(line), dtype=bool)
        v, v_abs, scale, t_powers, p_powers = tables
        with np.errstate(over="ignore", invalid="ignore"):
            z = (np.take(t_powers, line, axis=1)[:, None] * np.take(p_powers, k, axis=1)).reshape(v.shape[1], -1)
            d, m = v @ z, v_abs @ np.abs(z)
            return ((d * np.sign(d[0]) > scale * m) & np.isfinite(d)).all(axis=0)

    def zero_free(self, kind: str, line: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Whether f has no zero on each edge k of the line `line` (integer
        arrays): the float test, then an exact count where it fails."""
        proven = self.float_proofs(kind, line, k)
        first, step = self.along[kind]
        todo = np.flatnonzero(~proven)
        todo = todo[np.argsort(line[todo], kind="stable")]
        for at, group in itertools.groupby(zip(line[todo].tolist(), k[todo].tolist(), todo.tolist()), lambda e: e[0]):
            count = sturm_counter(self.rows[kind][at])
            for _, edge, e in group:
                proven[e] = count(first + edge * step, first + (edge + 1) * step) == 0
        return proven

    def proven(self, kind: str, line: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Whether each edge k of the line `line` (integer arrays) is crossed,
        its end signs differing, or zero-free."""
        signs, width = self.signs.ravel(), self.lattice[-1] + 1
        start, step = (line * width + k, 1) if kind == "h" else (k * width + line, width)  # the edge's nodes, flat
        good = np.take(signs, start) != np.take(signs, start + step)
        if not good.all():
            good[~good] = self.zero_free(kind, line[~good], k[~good])
        return good


# -- compactness and the default box --------------------------------------------------


def _top_form_on(L: MultiPoly, var: int) -> list[int]:
    """Trimmed integer coefficients of L.den times the real top form L on the
    directions with the other coordinate 1: L(1, t) for var 1, L(t, 1) for var 0."""
    return utrim([re for re, _ in _specialize(L, var, [(1, 0), (1, 0)], 1)[1]])


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


def _min_abs_on_interval(coeffs: list[int], lo: Fraction, hi: Fraction, depth: int = 14) -> Fraction:
    """Positive lower bound for |poly| on [lo, hi]; poly must be zero-free there.

    The term-by-term interval bound is taken on [lo, hi] and, where it does
    not exclude zero, on its halves, down to `depth` bisections.  A
    subinterval of level k is [p, q] / s with integers p, q and s = d 2^k, d
    the common denominator of lo and hi, and its bounds are kept as integers
    times s^n (n = len(coeffs) - 1): term e contributes coeffs[e] s^(n-e)
    times the interval power of p and q.  Raises DegenerateInput when the
    depth runs out.
    """
    n = len(coeffs) - 1
    d = lo.denominator * hi.denominator // math.gcd(lo.denominator, hi.denominator)
    weights: list[list[int]] = []  # weights[k][e] = coeffs[e] * (d 2^k)^(n - e)
    best: tuple[int, int] | None = None  # the least bound so far: (bound * s^n, its level k)
    stack = [(int(lo * d), int(hi * d), 0)]
    while stack:
        p, q, k = stack.pop()
        if k == len(weights):
            s = d << k
            weights.append([c * s ** (n - e) for e, c in enumerate(coeffs)])
        w_k = weights[k]
        v_lo = v_hi = w_k[0]  # the constant term
        pe = qe = 1
        for e in range(1, n + 1):
            pe, qe = pe * p, qe * q
            if e % 2 or p >= 0:
                t_lo, t_hi = pe, qe
            elif q <= 0:
                t_lo, t_hi = qe, pe
            else:
                t_lo, t_hi = 0, max(pe, qe)
            w = w_k[e]
            if w >= 0:
                v_lo, v_hi = v_lo + w * t_lo, v_hi + w * t_hi
            else:
                v_lo, v_hi = v_lo + w * t_hi, v_hi + w * t_lo
        if v_lo > 0 or v_hi < 0:
            v = v_lo if v_lo > 0 else -v_hi
            # v / s_k^n against the best b / s_j^n, over the common d^n
            if best is None or v << (best[1] * n) < best[0] << (k * n):
                best = v, k
        elif k == depth:
            raise DegenerateInput("could not bound the top form away from zero")
        else:
            stack += [(p + q, 2 * q, k + 1), (2 * p, p + q, k + 1)]
    v, k = best
    return Fraction(v, d**n << (k * n))


def default_box(f: MultiPoly) -> Box:
    """A rigorous bounding box: beyond it the top form dominates the rest.

    B = 2, 4, 8, ... up to 2^40, the first with lam B^n > sum_d mass_d B^d,
    lam a lower bound for |L| on the boundary of the square [-1, 1]^2 and
    mass_d the sum of |coefficient| over the terms of degree d < n, compared
    in integers.
    """
    if not compactness_check(f):
        raise PreconditionError("real locus is unbounded; supply a box explicitly")
    L = leading_form(f)
    n = int(f.degree)
    lam = min(_min_abs_on_interval(_top_form_on(L, var), Fraction(-1), Fraction(1)) for var in (1, 0)) / L.den
    lower_mass: dict[int, int] = {}  # f.den times the mass of each lower degree
    for (a, b), (re, _) in f.num.items():
        if a + b < n:
            lower_mass[a + b] = lower_mass.get(a + b, 0) + abs(re)
    # lam B^n > sum_d (mass_d / f.den) B^d at B = 2^j, times f.den and lam's denominator
    num, den = lam.numerator * f.den, lam.denominator
    for j in range(1, 41):
        if num << (j * n) > den * sum(mass << (j * d) for d, mass in lower_mass.items()):
            return Box.square(1 << j)
    raise DegenerateInput("failed to find a bounding box")


# -- marching squares -----------------------------------------------------------------
# Cell (i, j) of an n x n lattice is c = j*n + i.  Its edges are numbered as
# the vertices on them: the horizontal edge from node (i, j) along x is
# j*n + i, and the vertical edge from node (i, j) along y is H + j*(n+1) + i,
# H = (n+1)*n.  So cell c has B = c, T = c + n, L = H + c + j and R = L + 1.

# segments per 4-bit corner sign pattern (c0=bl, c1=br, c2=tr, c3=tl; bit = negative)
_SEGMENTS = {
    1: ("B", "L"),
    2: ("B", "R"),
    3: ("L", "R"),
    4: ("R", "T"),
    6: ("B", "T"),
    7: ("L", "T"),
    8: ("L", "T"),
    9: ("B", "T"),
    11: ("R", "T"),
    12: ("L", "R"),
    13: ("B", "R"),
    14: ("B", "L"),
}
_AMBIGUOUS = (5, 10)
# the two ends of each pattern's segment as rows of `_edge_ids` (B, T, L, R)
_SEGMENT_ENDS = np.array([["BTLR".index(_SEGMENTS.get(p, "BB")[end]) for p in range(16)] for end in (0, 1)])


def _unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array, by one sort: numpy's plain
    `np.unique` imports `numpy.ma` on its first call, which costs a short
    `ovals` or `certify` run more than its lattice does."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def _cases(signs: np.ndarray) -> np.ndarray:
    """The corner sign pattern of every cell of a sign grid indexed [j][i]."""
    neg = (signs < 0).astype(np.int8)
    return neg[:-1, :-1] + 2 * neg[:-1, 1:] + 4 * neg[1:, 1:] + 8 * neg[1:, :-1]


def _edge_ids(cells: np.ndarray, n: int) -> np.ndarray:
    """The ids of the B, T, L and R edges of flat cells of an n x n lattice,
    as the rows of a (4, k) array."""
    left = (n + 1) * n + cells + cells // n
    return np.stack((cells, cells + n, left, left + 1))


def _cell_segments(cases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(cells, a, b, ambiguous): the segment from edge a to edge b of every
    crossed cell of a case grid that is not ambiguous, its flat cells in
    row-major order, and the ambiguous cells."""
    flat = cases.ravel()
    crossed = np.flatnonzero((flat != 0) & (flat != 15))
    pattern = flat[crossed]
    ambiguous = (pattern == _AMBIGUOUS[0]) | (pattern == _AMBIGUOUS[1])
    cells, pattern = crossed[~ambiguous], pattern[~ambiguous]
    edges, k = _edge_ids(cells, cases.shape[1]), np.arange(len(cells))
    return cells, edges[_SEGMENT_ENDS[0, pattern], k], edges[_SEGMENT_ENDS[1, pattern], k], crossed[ambiguous]


def _edge_points(rows: _LineRows, lattice: tuple, edges: np.ndarray) -> np.ndarray:
    """The vertices on lattice edges (ids as above), as a (k, 2) float array.

    Each is the zero of the linear interpolant of f on its edge, from node
    (i, j) along x or along y: x + t * (sx/dx) or y + t * (sy/dy), with
    t = va/(va - vb) from the exact values va and vb of the lattice rows at
    the edge's ends (their signs differ).  Each node is evaluated once; each
    quotient of integers is correctly rounded, and the product and the sum
    are single float64 operations, so any positive multiple of f gives the
    same bits.
    """
    ax, sx, dx, ay, sy, dy, n = lattice
    vertical = edges >= (n + 1) * n
    j, i = np.divmod(edges - vertical * ((n + 1) * n), n + vertical)
    first = j * (n + 1) + i  # the edge's two nodes, numbered j*(n+1) + i
    nodes, ends = np.unique(np.concatenate((first, first + np.where(vertical, n + 1, 1))), return_inverse=True)
    values = [ueval(rows[jn], ax + i_n * sx) for jn, i_n in (divmod(node, n + 1) for node in nodes.tolist())]
    ends = ends.tolist()
    t = np.array([values[a] / (values[a] - values[b]) for a, b in zip(ends[: len(edges)], ends[len(edges) :])])
    x = np.array([(ax + k * sx) / dx for k in i.tolist()])
    y = np.array([(ay + k * sy) / dy for k in j.tolist()])
    return np.column_stack((np.where(vertical, x, x + t * (sx / dx)), np.where(vertical, y + t * (sy / dy), y)))


class _Mesher:
    """Closed contours from exact signs on an integer lattice, as chains of
    integer vertex ids whose positions are placed only when read.

    The lattice is (ax, sx, dx, ay, sy, dy, n) as from `_box_lattice`, with
    the signs and rows `_sign_grid` gives for it.  Every crossed cell that
    is not ambiguous gives one segment between two of its edges.  The m x m
    sub-lattice of an ambiguous cell is again an integer lattice, so
    subdivision takes its signs and rows from `_sign_grid` too; its edges
    get ids of their own after those of the lattices before it, except that
    a side of the cell crossed once is the coarse edge.  The segments are
    arrays in row-major order of their coarse cells (a subdivided cell's in
    the order they are made), each with its coarse cell.  `assemble` joins
    them into chains over compact ids, and `place` gives the positions of
    any of those, coarse or sub-lattice, each placed by `_edge_points` from
    its own lattice's rows the first time it is asked for: when an oval's
    vertices are read, and for the few vertices `sort_keys` needs (see the
    lemma there).
    """

    def __init__(self, f: MultiPoly, lattice: tuple, signs: np.ndarray, rows: _LineRows):
        self.f, self.lattice, self.signs = f, lattice, signs
        self.lattices = [(0, lattice, rows)]  # (first edge id, lattice, rows): the coarse one, then each sub-lattice
        self._next_id = 2 * (lattice[-1] + 1) * lattice[-1]
        self._parts: list[tuple] = []  # (cells, a, b) arrays of segments
        self.uncertified_cells: set[int] = set()
        self.warnings: list[str] = []

    def run(self):
        n = self.lattice[-1]
        cells, a, b, ambiguous = _cell_segments(_cases(self.signs))
        self._parts.append((cells, a, b))
        for c in ambiguous.tolist():
            self._subdivide_cell(c % n, c // n)
        cells, a, b = (np.concatenate(arrays) for arrays in zip(*self._parts))
        order = np.argsort(cells, kind="stable")  # a subdivided cell's segments go in at its place
        self.cells, self.a, self.b = cells[order], a[order], b[order]

    def _add(self, c: int, a, b):
        self._parts.append((np.full(len(a), c), np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)))

    # ---- ambiguous-cell subdivision

    def _subdivide_cell(self, i: int, j: int):
        ax, sx, dx, ay, sy, dy, n = self.lattice
        for depth in range(1, MAX_SUBDIVISION_DEPTH + 1):
            m = 1 << depth
            sub = (m * (ax + i * sx), sx, m * dx, m * (ay + j * sy), sy, m * dy, m)
            signs, rows = _sign_grid(self.f, *sub)
            if signs is None:
                continue  # a finer lattice node hit the curve; deepen
            cases = _cases(signs)
            if not np.isin(cases, _AMBIGUOUS).any():
                self._emit_subgrid(i, j, sub, signs, rows, cases)
                return
        c = j * n + i
        self.uncertified_cells.add(c)
        self.warnings.append(
            f"cell ({i},{j}) still ambiguous at depth {MAX_SUBDIVISION_DEPTH}; "
            "count may be unreliable there"
        )
        # fall back to one diagonal pairing so chains still close
        bottom, top, left, right = _edge_ids(np.array([c]), n)[:, 0]
        self._add(c, [bottom, top], [left, right])

    def _emit_subgrid(self, i: int, j: int, sub: tuple, signs: np.ndarray, rows: _LineRows, cases: np.ndarray):
        n, m = self.lattice[-1], sub[-1]
        c, h, base = j * n + i, (m + 1) * m, self._next_id
        self._next_id += 2 * h
        self.lattices.append((base, sub, rows))
        ids = base + np.arange(2 * h)  # the id of each sub-lattice edge's vertex
        parent = _edge_ids(np.array([c]), n)[:, 0].tolist()
        a: list[int] = []
        b: list[int] = []
        # a side crossed once maps to its parent edge's vertex; a side crossed
        # more often is chord-paired locally
        k = np.arange(m)
        sides = (  # (signs along the side, its edges) for B, T, L, R
            (signs[0], k),
            (signs[m], m * m + k),
            (signs[:, 0], h + k * (m + 1)),
            (signs[:, m], h + k * (m + 1) + m),
        )
        for side, (line, edges) in enumerate(sides):
            crossed = edges[line[:-1] != line[1:]]
            if len(crossed) == 1:
                ids[crossed[0]] = parent[side]
            elif len(crossed) > 1:
                self.uncertified_cells.add(c)
                self.warnings.append(
                    f"cell ({i},{j}): {len(crossed)} crossings on one shared edge; "
                    "neighbor resolution too coarse, pairing locally"
                )
                keys = (base + crossed).tolist()
                # leave one crossing to link with the coarse neighbor if it saw one
                start = len(keys) % 2
                if start:
                    a.append(keys[0])
                    b.append(parent[side])
                a += keys[start::2]
                b += keys[start + 1 :: 2]
        _, sa, sb, _ = _cell_segments(cases)
        self._add(c, np.concatenate((np.array(a, dtype=np.int64), ids[sa])), np.concatenate((np.array(b, dtype=np.int64), ids[sb])))

    # ---- chain assembly

    def assemble(self) -> tuple[list[tuple[list[int], list[int]]], int]:
        """(closed chains, each as its vertices with the first repeated at
        the end and its segments; number of open chains).

        A chain starts at the first unused segment and takes, at its tail,
        the first unused segment of the tail vertex until it closes or
        stops; then it does the same from its other end.  Vertices are
        compact ids, indices into `vertex_ids`, and each vertex's segments
        are one list of the CSR `adjacency`, in segment order.
        """
        count = len(self.a)
        self.vertex_ids, ends = np.unique(np.concatenate((self.a, self.b)), return_inverse=True)
        self.ends = ends.reshape(2, count)  # the compact ids of each segment's two ends
        self._xy = np.empty((len(self.vertex_ids), 2))
        self._placed = np.zeros(len(self.vertex_ids), dtype=bool)
        segment = np.tile(np.arange(count), 2)
        adjacency = segment[np.lexsort((segment, ends))].tolist()
        first = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=len(self.vertex_ids))))).tolist()
        seg_a, seg_b = self.ends.tolist()
        used = [False] * count

        def extend(chain: list[int], segments: list[int]):
            """Append unused segments at the chain's end until it closes or stops."""
            while not (chain[-1] == chain[0] and len(chain) > 2):
                tail = chain[-1]
                for k in adjacency[first[tail] : first[tail + 1]]:
                    if not used[k]:
                        break
                else:
                    return
                used[k] = True
                segments.append(k)
                chain.append(seg_b[k] if seg_a[k] == tail else seg_a[k])

        loops: list[tuple[list[int], list[int]]] = []
        open_chains = 0
        for start in range(count):
            if used[start]:
                continue
            used[start] = True
            chain, segments = [seg_a[start], seg_b[start]], [start]
            extend(chain, segments)
            chain.reverse()
            extend(chain, segments)
            chain.reverse()
            if chain[0] == chain[-1] and len(chain) > 2:
                loops.append((chain, segments))
            else:
                open_chains += 1
        return loops, open_chains

    # ---- vertices, placed when read

    def place(self, vertices: np.ndarray) -> np.ndarray:
        """The positions of compact vertex ids as a (k, 2) float array; each
        vertex is placed the first time any call asks for it, all of one
        call's new vertices of a lattice in one `_edge_points` batch."""
        new = _unique(vertices[~self._placed[vertices]])
        if new.size:
            ids = self.vertex_ids[new]
            which = np.searchsorted([base for base, _, _ in self.lattices], ids, side="right") - 1
            for k in _unique(which).tolist():
                base, lattice, rows = self.lattices[k]
                here = which == k
                self._xy[new[here]] = _edge_points(rows, lattice, ids[here] - base)
            self._placed[new] = True
        return self._xy[vertices]

    def sort_keys(self, loops: list[tuple[list[int], list[int]]]) -> list[tuple[float, float]]:
        """(min x, min y) over all vertices of each closed chain, from the
        vertices of its cells in its least column and in its least row, all
        loops' in one batch.

        Lemma: let c be the least column of a loop's cells.  Every vertex of
        a cell in a column >= c + 1 has x >= fl(x_{c+1}), as its edge's
        first node is at or right of x_{c+1}, rounding is monotone and
        t * step >= 0.  A closed loop either lies wholly in column c, or
        passes from a column-c cell into column c + 1 through a vertex on
        the line x = x_{c+1}, whose x is exactly fl(x_{c+1}), and that vertex
        belongs to a column-c cell.  Either way min x over the vertices of
        the loop's column-c cells is min x over all its vertices.  The same
        holds for y with the loop's bottom row.
        """
        n, count = self.lattice[-1], len(loops)
        lengths = [len(segments) for _, segments in loops]
        segments = np.fromiter(itertools.chain.from_iterable(s for _, s in loops), dtype=np.int64, count=sum(lengths))
        loop = np.repeat(np.arange(count), lengths)
        cells = self.cells[segments]
        picks, sizes = [], []
        for along in (cells % n, cells // n):  # each loop's least column, then its least row
            least = along == np.minimum.reduceat(along, np.cumsum([0] + lengths[:-1]))[loop]
            picks.append(self.ends[:, segments[least]].T.ravel())  # both ends of each picked segment, loop by loop
            sizes.append(2 * np.bincount(loop[least], minlength=count))
        xy = self.place(np.concatenate(picks))
        low = np.minimum.reduceat(xy, np.cumsum(np.concatenate(([0], *sizes)))[:-1], axis=0)
        return list(zip(low[:count, 0].tolist(), low[count:, 1].tolist()))


def count_ovals(
    f: MultiPoly,
    box: Box | None = None,
    resolution: int = 256,
) -> OvalSet:
    """Count closed real components by adaptive marching squares on exact signs.

    Counting and certification read only the chains: each oval's vertices
    are placed when `Oval.vertices` is first read.  The ovals are sorted by
    (min x, min y) over all their vertices; by the lemma of
    `_Mesher.sort_keys` those minima are the minima over the vertices of
    each loop's cells in its least column and in its least row, so only
    those are placed to sort.
    """
    if resolution < 2:
        raise PreconditionError("resolution must be at least 2")
    if f.arity != 2:
        raise PreconditionError("expected an affine curve")
    if not f.has_real_coefficients():
        raise PreconditionError("real coefficients required")
    if f.is_constant():
        raise PreconditionError("curve must be nonconstant")
    if not is_squarefree(f):  # a squared factor never changes sign, so the sign grid cannot see it
        raise PreconditionError("curve must be squarefree")
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

    mesher = _Mesher(f, lattice, signs, rows)
    mesher.run()
    loops, open_chains = mesher.assemble()
    warnings.extend(mesher.warnings)
    if open_chains:
        warnings.append(f"{open_chains} open chain(s) reached the search boundary")

    result = OvalSet(box=box, resolution=resolution, warnings=warnings, open_chains=open_chains)
    n = lattice[-1]
    uncertified = np.array(sorted(mesher.uncertified_cells), dtype=np.int64)
    cells = [mesher.cells[segments] for _, segments in loops]
    clean = [not (uncertified.size and np.isin(c, uncertified).any()) for c in cells]
    # a loop with an uncertified cell asks about no edge
    asked = [np.column_stack((c % n, c // n)) if ok else np.empty((0, 2), dtype=np.int64) for c, ok in zip(cells, clean)]
    proven = _certify_loops(asked, _LatticeLines(f, lattice, signs, rows))
    result.ovals = [Oval(chain, ok and p, mesher) for (chain, _), ok, p in zip(loops, clean, proven)]
    if len(loops) > 1:
        keys = mesher.sort_keys(loops)
        result.ovals = [result.ovals[k] for k in sorted(range(len(loops)), key=keys.__getitem__)]
    return result


def _certify_loops(loops: list[np.ndarray], lines: _LatticeLines) -> list[bool]:
    """Whether each edge of each loop's cells, given as the (i, j) rows of a
    (k, 2) integer array (repeats allowed), is crossed (its end signs
    differ: in a certified cell, exactly the edges the loop passes through)
    or zero-free.  The distinct edges of all loops are decided together, one
    `_LatticeLines.proven` pass per axis."""
    if not loops:
        return []
    i, j = np.concatenate(loops).T
    owner = np.tile(np.repeat(np.arange(len(loops)), [len(c) for c in loops]), 2)
    n = lines.lattice[-1]
    failed = np.zeros(len(loops), dtype=bool)
    # each cell's bottom and top edges lie on lines j, j + 1 ("h", edge i); its
    # left and right edges on lines i, i + 1 ("v", edge j)
    for kind, line, k in (("h", (j, j + 1), (i, i)), ("v", (i, i + 1), (j, j))):
        edges, which = np.unique(np.concatenate(line) * n + np.concatenate(k), return_inverse=True)
        failed[owner[~lines.proven(kind, edges // n, edges % n)[which]]] = True
    return (~failed).tolist()


# -- numeric tracing -------------------------------------------------------------------
# f is evaluated at unit scale (`_horner_with_gradient`), so no threshold below
# sees the scale of f.  One rule puts a float point on the curve: Newton along
# the gradient reaches |f| <= _CORRECTOR_TOL * |grad f| within _CORRECTOR_ITER
# steps, and a squared gradient below _SINGULAR_G2 is a singular point; `_trace`'s
# scalar corrector and the batched `_project_all` apply it with the same bits.


def _horner_expr(coeffs: dict[int, str], var: str) -> str:
    """Horner form of sum coeffs[k] * var**k; an absent power costs one product."""
    top = max(coeffs)
    expr = coeffs[top]
    for k in range(top - 1, -1, -1):
        expr = f"({expr})*{var}" + (f" + {coeffs[k]}" if k in coeffs else "")
    return expr


def _horner_source(f: MultiPoly) -> str:
    """f as one straight-line Horner expression in x over Horner rows in y.

    Each coefficient is the correctly rounded float of f's (an int/int true
    division of its numerator by f.den), written by float.__repr__, which
    reads back to the same float.  The expression uses only + and *, so it
    takes Python floats or float64 arrays and gives the same bits on both; a
    constant is written c + 0.0*x, so arrays keep their shape.
    """
    if not f.has_real_coefficients():
        raise PreconditionError("real coefficients required")
    rows: dict[int, dict[int, str]] = {}
    for (a, b), (re, _) in f.num.items():
        try:
            rows.setdefault(a, {})[b] = repr(re / f.den)
        except OverflowError:
            raise UncertifiedResult(f"a coefficient is {_BEYOND_FLOAT}") from None
    if f.is_constant():
        return f"{rows.get(0, {}).get(0, '0.0')} + 0.0*x"
    return _horner_expr({a: f"({_horner_expr(row, 'y')})" for a, row in rows.items()}, "x")


@functools.lru_cache(maxsize=32)
def _horner(f: MultiPoly) -> Callable:
    """Float evaluator of f (`_horner_source`), compiled once per polynomial
    (memoised: MultiPoly is immutable and hashable, and the code depends only
    on its terms)."""
    return eval(f"lambda x, y: {_horner_source(f)}")


@functools.lru_cache(maxsize=32)
def _horner_with_gradient(f: MultiPoly) -> Callable:
    """One compiled evaluator of the triple (f, df/dx, df/dy) at unit scale: f
    times the positive rational that makes its largest coefficient magnitude
    1 (memoised).  The three are the Horner expressions `_horner` compiles for
    each, so each entry has the bits of its own evaluator."""
    if f.num:
        f = f.scale(Fraction(f.den, max(max(abs(re), abs(im)) for re, im in f.num.values())))
    parts = ", ".join(_horner_source(p) for p in (f, f.partial(0), f.partial(1)))
    return eval(f"lambda x, y: ({parts})")


_CORRECTOR_TOL = 1e-12
_CORRECTOR_ITER = 12
_SINGULAR_G2 = 1e-18
_MAX_STEPS = 2_000_000
_FILL_ROUNDS = 4  # each fill round halves the chords, so the sequential pass steps at 2**_FILL_ROUNDS * spacing
_RETRY_ROUNDS = 2  # a coarse pass refused at 2**_FILL_ROUNDS * spacing is retried at 2**_RETRY_ROUNDS * spacing
_MIN_COARSE = 64  # fewer coarse vertices than this: the coarse step is too long for the oval
_COARSE_MIN_COS = math.cos(math.radians(45))  # a coarse step may turn the gradient by at most 45 degrees


def newton_project(f: MultiPoly, pt):
    """Project a point onto f = 0 along the gradient; None when it fails."""
    out, ok = _project_all(_horner_with_gradient(f), np.array([pt], dtype=np.float64))
    return (float(out[0, 0]), float(out[0, 1])) if ok[0] else None


def _project_all(ev: Callable, seeds: np.ndarray):
    """The corrector on every row of an (n, 2) array at once, with the bits of
    `_trace`'s scalar loop: (points, converged); a row that does not converge,
    or meets a singular point, keeps its seed.  `ev` gives (f, f_x, f_y)."""
    out, ok = seeds.copy(), np.zeros(len(seeds), dtype=bool)
    live = np.arange(len(seeds))  # rows still iterating
    x, y = seeds[:, 0], seeds[:, 1]
    with np.errstate(all="ignore"):  # NaN and inf follow the scalar rules, silently
        for _ in range(_CORRECTOR_ITER):
            if not live.size:
                break
            v, dx, dy = ev(x, y)
            g2 = dx * dx + dy * dy
            going = ~(g2 < _SINGULAR_G2)
            done = going & (np.abs(v) <= _CORRECTOR_TOL * np.sqrt(g2))
            if done.all():  # the common end: every live row converges at once
                out[live, 0], out[live, 1], ok[live] = x, y, True
                break
            keep = going & ~done
            if not keep.all():  # compact only when some rows stop and others go on
                out[live[done], 0], out[live[done], 1], ok[live[done]] = x[done], y[done], True
                live, x, y, v, dx, dy, g2 = (a[keep] for a in (live, x, y, v, dx, dy, g2))
            x = x - v * dx / g2
            y = y - v * dy / g2
    return out, ok


def _midpoints(ev: Callable, pts: np.ndarray, guesses: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """A closed (n, 2) polyline with the projection of every chord midpoint
    (or of each of the n - 1 `guesses`) inserted, as (2n - 1, 2) rows, and
    whether every one converged (one that did not stays where it started)."""
    mids, ok = _project_all(ev, 0.5 * (pts[:-1] + pts[1:]) if guesses is None else guesses)
    out = np.empty((2 * len(pts) - 1, 2))
    out[0::2] = pts
    out[1::2] = mids
    return out, bool(ok.all())


def _trace(ev: Callable, start: tuple[float, float], step: float, min_cos: float | None = None) -> np.ndarray | None:
    """Sequential predictor-corrector from `start`, a point on the curve, at
    step length `step`: an Euler step along the tangent, then the corrector
    (a failed corrector halves the step, which then grows back).  `ev` gives
    (f, f_x, f_y).

    The loop closes when, after at least five accepted vertices, it is back
    within 0.9 * step of `start` travelling the same way (its gradient has a
    positive dot product with the start's), so it does not close across a
    neck narrower than its step.  Returns an (n, 2) array whose last row is
    `start`; with `min_cos`, None as soon as one step turns the gradient by
    an angle whose cosine is below it (the step is too long for the curve).
    """
    x, y = start
    pts = [start]
    h = step
    _, sdx, sdy = ev(x, y)  # the start's gradient
    dx, dy = sdx, sdy  # later the corrector's gradient at its accepted point
    for _ in range(_MAX_STEPS):
        norm = math.hypot(dx, dy)
        if norm < 1e-9:
            raise DegenerateInput("trace approached a singular point of the curve")
        tx, ty = -dy / norm, dx / norm
        # corrector: Newton along the gradient from the Euler predictor
        cx, cy = x + h * tx, y + h * ty
        for _ in range(_CORRECTOR_ITER):
            v, ddx, ddy = ev(cx, cy)
            g2 = ddx * ddx + ddy * ddy
            if g2 < _SINGULAR_G2:
                raise DegenerateInput("trace approached a singular point of the curve")
            if abs(v) <= _CORRECTOR_TOL * math.sqrt(g2):
                break
            cx -= v * ddx / g2
            cy -= v * ddy / g2
        else:
            h *= 0.5
            if h < step * 1e-6:
                raise DegenerateInput("corrector failed; step size underflow")
            continue
        if min_cos is not None and ddx * dx + ddy * dy < min_cos * norm * math.sqrt(g2):
            return None
        x, y, dx, dy = cx, cy, ddx, ddy
        pts.append((x, y))
        if len(pts) > 6 and math.hypot(x - start[0], y - start[1]) < 0.9 * h and dx * sdx + dy * sdy > 0:
            pts[-1] = start
            return np.array(pts)
        if h < step:
            h = min(step, h * 1.5)
    raise DegenerateInput("trace did not close within the step budget")


def trace_oval(f: MultiPoly, seed: tuple[float, float], spacing: float = 1.5e-3) -> np.ndarray:
    """Predictor-corrector trace of the closed component through `seed`, as
    an (n, 2) float array whose last row equals its first.

    The seed is projected by `_project_all`.  The sequential loop (`_trace`)
    then follows the curve at 16 * spacing; four rounds of `_midpoints`
    place the other vertices by projecting every chord midpoint at once, so
    consecutive vertices end up about `spacing` apart.  When that coarse
    step is too long for the curve (one step turns the gradient by more than
    45 degrees, or the loop has fewer than 64 vertices) or a midpoint does
    not converge, the same is tried at 4 * spacing with two rounds, and
    after that the sequential loop at `spacing` itself gets two rounds (or,
    when one fails, is the result as it is).  So a polyline that the rounds
    fill has a chord count that is a multiple of 4, and its decimations by 2
    and by 4, which `divergence_integral`'s Romberg rule sums, are the
    polylines it was filled from.
    Either way every vertex, the first too, passes the corrector's rule, and
    the loop closes only when it is back near the seed travelling the same
    way.  Raises PreconditionError on a spacing that is not a positive finite
    number, UncertifiedResult when the corrector does not bring the seed onto
    the curve, and DegenerateInput on singular approach or on failure to close.
    """
    if not 0 < spacing < math.inf:
        raise PreconditionError(f"spacing must be a positive finite number, not {spacing!r}")
    ev = _horner_with_gradient(f)
    out, ok = _project_all(ev, np.array([seed], dtype=np.float64))
    if not ok[0]:
        raise UncertifiedResult("seed failed to project onto the curve")
    start = float(out[0, 0]), float(out[0, 1])
    for rounds in (_FILL_ROUNDS, _RETRY_ROUNDS):
        pts = _trace(ev, start, 2**rounds * spacing, _COARSE_MIN_COS)
        if pts is None or len(pts) < _MIN_COARSE:
            continue
        filled = _filled(ev, pts, rounds)
        if filled is not None:
            return filled
    pts = _trace(ev, start, spacing)
    filled = _filled(ev, pts, _RETRY_ROUNDS)
    return pts if filled is None else filled


def _filled(ev: Callable, pts: np.ndarray, rounds: int) -> np.ndarray | None:
    """`rounds` rounds of `_midpoints` on a closed polyline; None when a
    midpoint does not converge."""
    for _ in range(rounds):
        pts, ok = _midpoints(ev, pts)
        if not ok:
            return None
    return pts


def _definite_conic(f: MultiPoly) -> tuple | None:
    """(a, b, c, det, x0, y0, k) when f has degree 2, real coefficients and
    a definite quadratic part, else None.  a, b, c are f's integer
    numerators of x^2, xy and y^2, all signs flipped when a < 0 (-f has the
    zero set of f), so a > 0 and det = 4ac - b^2 > 0; (x0, y0) is the
    center, where the gradient vanishes, and k the value there, both exact
    Fractions of the same numerators."""
    if f.degree != 2 or not f.has_real_coefficients():
        return None
    num = {e: re for e, (re, _) in f.num.items()}
    a, b, c, d, e, g = (num.get(p, 0) for p in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)))
    det = 4 * a * c - b * b
    if det <= 0:
        return None
    if a < 0:
        a, b, c, d, e, g = -a, -b, -c, -d, -e, -g
    x0, y0 = Fraction(b * e - 2 * c * d, det), Fraction(b * d - 2 * a * e, det)
    # the quadratic part is half its gradient's dot product with the point
    return a, b, c, det, x0, y0, g + (d * x0 + e * y0) / 2


def _ellipse_frame(conic: tuple) -> tuple[float, ...] | None:
    """(x0, y0, cos phi, sin phi, s1, s2) in floats for an ellipse
    `_definite_conic` gave with k < 0: the point at eccentric anomaly t is
    (x0, y0) + s1 cos t (cos phi, sin phi) + s2 sin t (-sin phi, cos phi).
    phi = atan2(b, a - c) / 2 is the axis of the larger eigenvalue lambda
    of the quadratic part, s1 = sqrt(-k / lambda) and s2 = sqrt(-4 k lambda
    / det), read at the scale max(a, c).  None when one of them is not a
    finite float (or a semi-axis is 0)."""
    a, b, c, det, x0, y0, k = conic
    top = max(a, c)
    a, b, c = a / top, b / top, c / top
    big = 0.5 * (a + c) + 0.5 * math.hypot(a - c, b)
    try:
        k = float(k / top)
        x0, y0, s1, s2 = float(x0), float(y0), math.sqrt(-k / big), math.sqrt(-4.0 * k * big / float(Fraction(det, top * top)))
    except (OverflowError, ZeroDivisionError):
        return None
    if not (0 < s1 and s2 < math.inf):  # s1 <= s2
        return None
    phi = 0.5 * math.atan2(b, a - c)
    return x0, y0, math.cos(phi), math.sin(phi), s1, s2


def _at_anomaly(frame: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    """The points of the ellipse `frame` at eccentric anomalies t, as rows."""
    x0, y0, cos, sin, s1, s2 = frame
    p, q = s1 * np.cos(t), s2 * np.sin(t)
    return np.column_stack([x0 + cos * p - sin * q, y0 + sin * p + cos * q])


def ellipse_count(f: MultiPoly, box: Box | None = None) -> int | None:
    """The number of ovals of f = 0 when f is an ellipse, decided exactly: 1,
    or 0 when the real locus is a point or empty; None when f is not an
    ellipse, or when box is given and the oval does not lie strictly inside
    it.

    f is an ellipse when it has degree 2, real coefficients and, with its
    integer numerators signed so that a > 0, 4ac - b^2 > 0.  A definite
    quadratic part makes f squarefree (a product of two lines, or a
    square, has 4ac - b^2 <= 0) and bounded below by its value k at the
    center, reached there alone.  So the real locus is one oval when k < 0,
    the center alone when k = 0 and empty when k > 0, and no squarefree
    test, bounding box or lattice is needed to count it; the center and k
    are exact Fractions.  With a box, the oval counts when its bounding
    rectangle lies strictly inside: the squared half-widths are -4ck/det
    along x and -4ak/det along y, compared with the squared distances from
    the center to the box's sides as exact rationals.
    """
    conic = _definite_conic(f)
    if conic is None:
        return None
    a, _, c, det, x0, y0, k = conic
    if k >= 0:
        return 0
    if box is not None:
        for lo, hi, mid, half2 in ((box.x_lo, box.x_hi, x0, -4 * c * k / det), (box.y_lo, box.y_hi, y0, -4 * a * k / det)):
            if not (lo < mid < hi and min(mid - lo, hi - mid) ** 2 > half2):
                return None
    return 1


def ellipse_loop(f: MultiPoly, box: Box | None = None, spacing: float = 1.5e-3) -> list[np.ndarray] | None:
    """The ovals of f = 0 when f is an ellipse, counted by `ellipse_count`
    and placed in closed form: a list of closed (n + 1, 2) float arrays, []
    when the real locus is a point or empty; None when `ellipse_count` is.

    The polyline starts at eccentric anomaly 0, projected by `_project_all`
    (UncertifiedResult when that fails, or when the closed form leaves float
    range); vertices 1 ... n - 1 are the points at anomaly 2 pi k / n,
    projected by one more `_project_all` call, and when one of them does not
    converge the oval is traced instead (`trace_oval` from the projected
    start).  n = 4 ceil(P / (4 spacing)), at least _MIN_COARSE, with P
    Ramanujan's perimeter.  `divergence_integral`'s Romberg rule sums the
    decimations by 2 and by 4, which are nested polylines only when n is a
    multiple of 4, and its error expansion needs a smooth parameter: a
    uniform anomaly is one, an arc-length resampling is not.  Raises
    PreconditionError on a spacing that is not a positive finite number and
    DegenerateInput when n exceeds what `trace_oval` can fill,
    2**_FILL_ROUNDS * _MAX_STEPS.
    """
    if not 0 < spacing < math.inf:
        raise PreconditionError(f"spacing must be a positive finite number, not {spacing!r}")
    count = ellipse_count(f, box)
    if not count:
        return None if count is None else []
    frame = _ellipse_frame(_definite_conic(f))
    if frame is None:
        raise UncertifiedResult("the ellipse's center or semi-axes leave float range")
    s1, s2 = frame[4:]
    perimeter = math.pi * (3 * (s1 + s2) - math.sqrt((3 * s1 + s2) * (s1 + 3 * s2)))
    quarters = perimeter / (4 * spacing)
    if not quarters <= 2**_FILL_ROUNDS * _MAX_STEPS / 4:
        raise DegenerateInput(f"an ellipse of perimeter {perimeter:.3g} needs more vertices at spacing {spacing!r} than the trace budget")
    n = 4 * max(math.ceil(quarters), _MIN_COARSE // 4)
    ev = _horner_with_gradient(f)
    start, ok = _project_all(ev, _at_anomaly(frame, np.zeros(1)))
    if not ok[0]:
        raise UncertifiedResult("seed failed to project onto the curve")
    pts, ok = _project_all(ev, _at_anomaly(frame, (2 * math.pi / n) * np.arange(1, n)))
    if not ok.all():
        return [trace_oval(f, (float(start[0, 0]), float(start[0, 1])), spacing)]
    return [np.vstack([start, pts, start])]


def refine_polyline(f: MultiPoly, pts) -> np.ndarray:
    """Insert a curve-projected point between consecutive vertices of a
    closed polyline, given and returned as an (n, 2) float array, keeping
    the old vertices at the even rows; a point whose projection fails is
    kept where it started.

    On an ellipse (`_definite_conic`, k < 0) the point is the one at the
    mean eccentric anomaly of the two vertices, so a polyline at uniform
    anomaly stays one and its sums keep the Romberg expansion; on any other
    curve it is the chord's midpoint."""
    pts = np.asarray(pts, dtype=np.float64)
    ev = _horner_with_gradient(f)
    conic = _definite_conic(f)
    frame = _ellipse_frame(conic) if conic is not None and conic[-1] < 0 else None
    if frame is None:
        return _midpoints(ev, pts)[0]
    x0, y0, cos, sin, s1, s2 = frame
    u, v = pts[:, 0] - x0, pts[:, 1] - y0
    t = np.arctan2((cos * v - sin * u) / s2, (cos * u + sin * v) / s1)
    step = np.remainder(np.diff(t) + math.pi, 2 * math.pi) - math.pi  # each step the short way round
    return _midpoints(ev, pts, _at_anomaly(frame, t[:-1] + 0.5 * step))[0]
