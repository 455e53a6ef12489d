"""Seeded generators for the benchmark's `.fol` documents and command lines.

Every pool entry is a pure function of (job kind, index): the same index
always yields byte-identical documents.  A run's --seed only chooses which
pool entries it runs (see run.py), so every input any seed can pick has a
reference answer recorded in answers.json.

`expect` holds what is known by construction; answers that are not known by
construction are compared against answers.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import poly as P

DOC = "{doc}"  # placeholder in argv for the path of the job's document

ALGEBRA_COMMANDS = (
    "construct",
    "check-invariant",
    "darboux-check",
    "singularities",
    "classify",
    "euler-check",
    "multiplicity",
)
OVALS_RES = (128, 256, 512)
CERTIFY_ARGS = ["--res", "64", "--spacing", "2e-3", "--all-ovals", "--json"]


@dataclass
class Job:
    id: str
    command: str
    argv: list[str]
    doc: str | None = None
    expect: dict = field(default_factory=dict)

    def args(self, doc_path: str | None) -> list[str]:
        return [doc_path if a == DOC else a for a in self.argv]


def _rng(workload: str, index: int) -> random.Random:
    salt = {"algebra": 1, "ovals": 2, "certify": 3}[workload]
    return random.Random(salt * 1_000_003 + index)


def _fol(fields: dict, curves: dict) -> str:
    lines = []
    for name, (p, q, r) in fields.items():
        lines += [f"[field {name}]", f"p = {P.to_text(p)}", f"q = {P.to_text(q)}"]
        if r:
            lines.append(f"r = {P.to_text(r)}")
        lines.append("")
    for name, f in curves.items():
        lines += [f"[curve {name}]", f"f = {P.to_text(f)}", ""]
    return "\n".join(lines)


# -- algebra: logarithmic foliations ---------------------------------------------


def _det3(u, v, w) -> int:
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def _lines(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """n integer lines aX + bY + cZ in general position, none of them Z = 0."""
    out: list[tuple[int, int, int]] = []
    while len(out) < n:
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        if not (a or b):
            continue
        cand = (a, b, c)
        if any(
            (cand[0] * o[1] - cand[1] * o[0], cand[0] * o[2] - cand[2] * o[0], cand[1] * o[2] - cand[2] * o[1])
            == (0, 0, 0)
            for o in out
        ):
            continue
        if any(_det3(cand, out[i], out[j]) == 0 for i in range(len(out)) for j in range(i + 1, len(out))):
            continue
        out.append(cand)
    return out


def log_foliation(curves: list[dict], weights: list[int]) -> tuple[dict, dict, dict]:
    """The one-form sum_j w_j (prod_{i != j} F_i) dF_j, as (P, Q, R)."""
    parts = [{}, {}, {}]
    for j, Fj in enumerate(curves):
        cof = P.scale(P.product([F for i, F in enumerate(curves) if i != j], 3), weights[j])
        for k in range(3):
            parts[k] = P.add(parts[k], P.mul(cof, P.partial(Fj, k)))
    return parts[0], parts[1], parts[2]


def algebra_job(index: int) -> Job:
    rng = _rng("algebra", index)
    n = rng.choice((3, 3, 4, 4, 5))
    lines = _lines(rng, n)
    curves = [P.linear(line, 3) for line in lines]
    texts = [P.to_text(F, P.PROJECTIVE) for F in curves]
    degrees = [1] * n
    if rng.random() < 0.3:
        X, Y, Z = P.symbols(3)
        a, c, r = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        p, q = rng.randint(-2, 2), rng.randint(-2, 2)
        conic = a * (X - p * Z) ** 2 + c * (Y - q * Z) ** 2 - r * Z**2
        curves.append(conic.d)
        texts.append(P.to_text(conic.d, P.PROJECTIVE))
        degrees.append(2)
    while True:
        weights = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in degrees[:-1]]
        s = sum(w * d for w, d in zip(weights, degrees))
        if s and s % degrees[-1] == 0:
            weights.append(-s // degrees[-1])
            break
    form = log_foliation(curves, weights)
    p, q, r = P.normal_form(*form)
    components = {f"component_{k}": P.dehomogenize(F) for k, F in enumerate(curves)}
    doc = _fol({"log": (p, q, r)}, components)
    wtext = "--weights=" + ",".join(str(w) for w in weights)
    command = rng.choice(ALGEBRA_COMMANDS)
    pick = f"component_{rng.randrange(len(curves))}"
    expect = {"form": [P.to_text(part, P.PROJECTIVE) for part in form]}
    if command == "construct":
        argv = ["construct", "log", "--curves", ";".join(texts), wtext]
        expect["field"] = [P.to_text(part) for part in (p, q, r)]
        expect["components"] = {k: P.to_text(v) for k, v in components.items()}
        doc = None
    elif command == "darboux-check":
        argv = ["darboux-check", DOC, "--field", "log", "--curves", ",".join(components), wtext, "--json"]
    elif command in ("singularities", "classify"):
        argv = [command, DOC, "--field", "log", "--json"]
    else:
        argv = [command, DOC, "--field", "log", "--curve", pick, "--json"]
        if command == "euler-check":
            argv[-1:-1] = ["--chi", "2"]
    if command in ("check-invariant", "euler-check", "multiplicity"):
        expect["curve"] = P.to_text(components[pick])
    expect["field_pqr"] = [P.to_text(part) for part in (p, q, r)]
    return Job(f"algebra/{index}", command, argv, doc, expect)


def gallery_euler_jobs() -> list[Job]:
    """ROADMAP row: euler-check over the gallery's three reference foliations."""
    X, Y, Z = P.symbols(3)
    alpha, beta = Fraction(1, 2), Fraction(1)
    forms = {
        "example1": (alpha * Y * Z, beta * X * Z, -(alpha + beta) * X * Y, 2),
        "example2": ((2 * Y * Z - X**2) * Z, X * (Y + Z) * Z, X**3 - X * Y**2 - 3 * X * Y * Z, 3),
        "example3": (
            (X**3 - 2 * Y**2 * Z) * Z,
            -X * (Y**2 + Z**2) * Z,
            -(X**4 - 2 * X * Y**2 * Z - X * Y * Z**2 - X * Y**3),
            4,
        ),
    }
    jobs = []
    for name, (Pf, Qf, Rf, sum_mu) in forms.items():
        field_parts = P.normal_form(Pf.d, Qf.d, Rf.d)
        doc = _fol({name: field_parts}, {"curve": P.var(0)})
        argv = ["euler-check", DOC, "--field", name, "--curve", "curve", "--chi", "2", "--json"]
        expect = {
            "form": [P.to_text(part.d, P.PROJECTIVE) for part in (Pf, Qf, Rf)],
            "sum_mu": sum_mu,
            "curve": "x",
            "field_pqr": [P.to_text(part) for part in field_parts],
        }
        jobs.append(Job(f"gallery-euler/{name}", "euler-check", argv, doc, expect))
    return jobs


# -- ovals and certify: curves with a known number of ovals ------------------------

_AXES = tuple(Fraction(k, 4) for k in range(2, 9))  # 1/2 .. 2
_CENTRES = tuple(Fraction(k, 4) for k in range(-6, 7))  # -3/2 .. 3/2


def _inside(ell, pt) -> bool:
    (cx, cy), (a, b) = ell
    return ((pt[0] - cx) / a) ** 2 + ((pt[1] - cy) / b) ** 2 < 1


def _bbox(ell):
    (cx, cy), (a, b) = ell
    return cx - a, cx + a, cy - b, cy + b


def _corners(ell):
    x0, x1, y0, y1 = _bbox(ell)
    return ((x0, y0), (x0, y1), (x1, y0), (x1, y1))


def _apart(e1, e2) -> bool:
    a, b = _bbox(e1), _bbox(e2)
    return a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2]


def _ellipse_poly(ell) -> dict:
    (cx, cy), (a, b) = ell
    x, y = P.symbols(2)
    return (((x - cx) * (1 / a)) ** 2 + ((y - cy) * (1 / b)) ** 2 - 1).d


def _disjoint_ellipses(rng: random.Random, k: int) -> list:
    """k axis-parallel ellipses with rational data, pairwise disjoint or nested.

    Disjointness is exact: boxes apart, or one ellipse's box strictly inside
    the other ellipse (an ellipse is convex, so its corners decide).
    """
    out: list = []
    while len(out) < k:
        cand = ((rng.choice(_CENTRES), rng.choice(_CENTRES)), (rng.choice(_AXES), rng.choice(_AXES)))
        if all(
            _apart(cand, e)
            or all(_inside(e, c) for c in _corners(cand))
            or all(_inside(cand, c) for c in _corners(e))
            for e in out
        ):
            out.append(cand)
    return out


def oval_curve(rng: random.Random) -> tuple[dict, int]:
    """(f, number of ovals of f = 0)."""
    if rng.random() < 0.6:
        k = rng.choice((1, 2, 3))
        ells = _disjoint_ellipses(rng, k)
        return P.product([_ellipse_poly(e) for e in ells]), k
    # level set E1*E2 = -eps of two crossing ellipses a x^2 + b y^2 = 1 and
    # b x^2 + a y^2 = 1: on each of the four lenses E1*E2 has the single
    # critical value -(a - b)^2 / (4ab), so 0 < eps below it leaves four ovals
    a = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2)))
    b = a * rng.choice((Fraction(3, 2), Fraction(2), Fraction(3)))
    u = rng.choice((Fraction(1, 20), Fraction(2, 25), Fraction(1, 8), Fraction(1, 5), Fraction(3, 10)))
    eps = u * (a - b) ** 2 / (4 * a * b)
    cx, cy = rng.choice(_CENTRES) / 2, rng.choice(_CENTRES) / 2
    s = rng.choice((Fraction(1), Fraction(3, 2), Fraction(2)))
    x, y = P.symbols(2)
    X, Y = (x - cx) * (1 / s), (y - cy) * (1 / s)
    f = ((a * X**2 + b * Y**2 - 1) * (b * X**2 + a * Y**2 - 1) + eps).d
    return f, 4


def quartic_4_ovals() -> dict:
    x, y = P.symbols(2)
    return ((x**2 + 2 * y**2 - 1) * (2 * x**2 + y**2 - 1) + Fraction(1, 100)).d


def ovals_job(index: int) -> Job:
    rng = _rng("ovals", index)
    f, count = oval_curve(rng)
    res = rng.choice(OVALS_RES)
    argv = ["ovals", DOC, "--curve", "curve", "--res", str(res), "--json"]
    return Job(f"ovals/{index}", "ovals", argv, _fol({}, {"curve": f}), {"ovals": count})


def quartic_jobs() -> list[Job]:
    """ROADMAP rows: ovals on quartic-4-ovals at res 64, 256 and 512."""
    doc = _fol({}, {"curve": quartic_4_ovals()})
    return [
        Job(f"quartic-4-ovals/res{res}", "ovals", ["ovals", DOC, "--curve", "curve", "--res", str(res), "--json"], doc, {"ovals": 4})
        for res in (64, 256, 512)
    ]


def eee_field(g: dict, h: dict, a: Fraction, b: Fraction) -> tuple[dict, dict, dict]:
    """(a g - h g_y, b g + h g_x): g is invariant with cofactor a g_x + b g_y."""
    p = P.sub(P.scale(g, a), P.mul(h, P.partial(g, 1)))
    q = P.add(P.scale(g, b), P.mul(h, P.partial(g, 0)))
    return p, q, {}


def certify_job(index: int) -> Job:
    rng = _rng("certify", index)
    # one ellipse of the ovals family: eee jobs on products of 2-3 ellipses
    # take 2-27 s at the seed and crossing level sets 11-19 s, so a run could
    # hold only a few of them (see NOTES.md)
    ellipse = _disjoint_ellipses(rng, 1)[0]
    g = _ellipse_poly(ellipse)
    x0, x1, y0, y1 = _bbox(ellipse)
    # h is a line clear of the ellipse's bounding box, so h has no zero on or
    # inside the oval (the construction's precondition) and every divergence
    # integral is strictly signed
    margin = rng.choice((Fraction(1), Fraction(2), Fraction(3)))
    side = rng.randrange(4)
    coord, offset = [(0, x1 + margin), (0, x0 - margin), (1, y1 + margin), (1, y0 - margin)][side]
    h = P.add(P.var(coord), P.const(-offset))
    a, b = rng.choice(((1, 1), (1, 0), (0, 1), (2, 1), (1, -1)))
    if (a, b)[coord] == 0:
        a, b = (1, 1)
    field_parts = eee_field(g, h, Fraction(a), Fraction(b))
    doc = _fol({"eee": field_parts}, {"g": g})
    argv = ["certify", DOC, "--field", "eee", "--curve", "g"] + CERTIFY_ARGS
    return Job(f"certify/{index}", "certify", argv, doc, {"ovals": 1})


def eee_circle_job() -> Job:
    """ROADMAP row: certify on the eee circle with the default certify settings."""
    x, y = P.symbols(2)
    g = (x**2 + y**2 - 1).d
    field_parts = eee_field(g, (x - 2).d, Fraction(1), Fraction(1))
    doc = _fol({"eee": field_parts}, {"g": g})
    argv = ["certify", DOC, "--field", "eee", "--curve", "g", "--json"]
    return Job("eee-circle/default", "certify", argv, doc, {"ovals": 1})


POOL_JOB = {"algebra": algebra_job, "ovals": ovals_job, "certify": certify_job}
# each workload's pool mixes these job kinds
WORKLOAD_KINDS = {"algebra": ("algebra",), "geometry": ("ovals", "certify")}
NAMED_JOBS = {"algebra": gallery_euler_jobs, "geometry": lambda: quartic_jobs() + [eee_circle_job()]}
