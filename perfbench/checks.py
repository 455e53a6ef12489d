"""Answer checks for every benchmark job.

`summarize` turns a job's exit code and output into the mathematical answer
(never formatting, and only keys that exist at the seed commit).  `judge`
decides whether that answer is right, from two sources:

- facts known by construction (invariance, oval counts, hyperbolicity, the
  field a `construct log` must print), checked with the benchmark's own exact
  arithmetic in poly.py;
- the answer recorded at the seed commit in answers.json, for answers that no
  construction fixes (singular point sets, residual degrees, verdicts, mu
  values, divergence integrals and periods).

A later answer may be better than the recorded one (fewer unresolved degrees,
fewer unknown verdicts), never different on what the seed already decided.
"""

from __future__ import annotations

import json
from fractions import Fraction

import poly as P

LOCATION_TOLERANCE = 1e-8


class WrongAnswer(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def _payload(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise WrongAnswer(f"output is not JSON: {exc}") from exc


def _real(text: str) -> dict:
    return P.as_real(P.parse_expanded(text))


def _field(expect: dict) -> tuple[dict, dict]:
    """Components (p + x r, q + y r) of the job's field, from the generator."""
    p, q, r = (_real(t) for t in expect["field_pqr"])
    return P.add(p, P.mul(P.var(0), r)), P.add(q, P.mul(P.var(1), r))


def _is_cofactor(expect: dict, f: dict, K: dict) -> bool:
    u, w = _field(expect)
    lie = P.add(P.mul(u, P.partial(f, 0)), P.mul(w, P.partial(f, 1)))
    return lie == P.mul(K, f)


def _singular(expect: dict, point_text: str) -> bool:
    """True when the one-form (P, Q, R) vanishes at the projective point."""
    pt = P.parse_point(point_text)
    forms = [P.as_real(P.parse_expanded(t, P.PROJECTIVE)) for t in expect["form"]]
    return all(P.geval(F, pt) == (0, 0) for F in forms)


def _read_fol(text: str) -> dict:
    sections: dict = {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            current = tuple(line[1:-1].split())
            sections[current] = {}
        elif current is not None:
            key, _, value = line.partition("=")
            sections[current][key.strip()] = value.strip()
    return sections


# -- summaries ---------------------------------------------------------------------


def summarize(command: str, rc: int, stdout: str, expect: dict) -> dict:
    """The mathematical content of an answer, checked against construction.

    Raises WrongAnswer when the answer contradicts a fact known by
    construction or is malformed.
    """
    out: dict = {"rc": rc}
    if command == "construct":
        _require(rc == 0, f"exit {rc}")
        doc = _read_fol(stdout)
        field = doc.get(("field", "log"), {})
        got = [_real(field.get(k, "0")) for k in ("p", "q", "r")]
        _require(got == [_real(t) for t in expect["field"]], "constructed field differs")
        curves = {name: _real(sec["f"]) for (kind, name), sec in doc.items() if kind == "curve"}
        _require(curves == {k: _real(v) for k, v in expect["components"].items()}, "components differ")
        return out
    if rc not in (0, 3):
        raise WrongAnswer(f"exit {rc}")
    data = _payload(stdout)
    if command == "check-invariant":
        _require(rc == 0 and data["invariant"] is True, "component reported not invariant")
        K = _real(data["certificate"]["cofactor"])
        _require(_is_cofactor(expect, _real(expect["curve"]), K), "cofactor identity fails")
    elif command == "darboux-check":
        _require(rc == 0 and data["darboux"] is True, "weighted cofactor identity reported false")
    elif command == "singularities":
        points = data["affine"] + data["infinite"]
        _require(all(_singular(expect, p) for p in points), "reported point is not singular")
        out["points"] = sorted(P.point_key(p) for p in points)
        out["undecided"] = sum(
            data[k] for k in ("affine_residual", "affine_uncertain", "infinite_residual", "infinite_uncertain")
        )
        _require(rc == (3 if out["undecided"] else 0), f"exit {rc} with {out['undecided']} undecided")
    elif command == "classify":
        records = data["records"]
        _require(all(_singular(expect, r["point"]) for r in records), "reported point is not singular")
        out["verdicts"] = {P.point_key(r["point"]): r["verdict"] for r in records}
        out["points"] = sorted(out["verdicts"])
        out["undecided"] = data["residual"] + data["uncertain"]
        unknown = any(v == "unknown" for v in out["verdicts"].values())
        _require(rc == (3 if out["undecided"] or unknown else 0), f"exit {rc}")
    elif command == "euler-check":
        out["checkable"] = data["checkable"]
        out["sum_mu"] = data["sum_mu"]
        if data["checkable"]:
            _require(rc == 0 and data["identity_holds"] is True, "checkable identity fails for chi = 2")
        else:
            _require(rc == 3, f"exit {rc} on an uncheckable identity")
        if "sum_mu" in expect and data["checkable"]:
            _require(data["sum_mu"] == expect["sum_mu"], "sum(mu) differs from the reference")
    elif command == "multiplicity":
        mus: dict = {}
        for row in data["multiplicities"]:
            mus.setdefault(P.point_key(row["point"]), []).append(row["mu"] if row["certified"] else None)
        out["mu"] = {k: sorted(v, key=lambda m: (m is None, m)) for k, v in mus.items()}
        out["undecided"] = data["undecided_coordinates"]
    elif command == "ovals":
        out["count"] = data["count"]
        out["certified"] = data["certified_count"]
        _require(rc == 0, f"exit {rc}")
        _require(data["count"] == expect["ovals"], f"count {data['count']} != {expect['ovals']} constructed")
        _require(data["certified_count"] == data["count"], "not every oval is certified")
    elif command == "certify":
        _require(rc == 0, f"exit {rc}")
        certs = data["certificates"]
        _require(data["oval_count"] == expect["ovals"] == len(certs), f"{data['oval_count']} ovals found")
        for c in certs:
            _require(c["hyperbolic"] is True, "oval not certified hyperbolic")
            want = "Stable" if c["divergence_integral"] < 0 else "Unstable"
            _require(c["stability"] == want, "stability contradicts the sign of D")
        locs = data["location"]
        _require(len(locs) == len(certs), "missing location residuals")
        _require(all(row["residual"] < LOCATION_TOLERANCE for row in locs), "location residual too large")
        out["certificates"] = [
            {k: c[k] for k in ("divergence_integral", "period", "quadrature_rel_err", "stability")}
            for c in certs
        ]
    else:
        raise ValueError(f"no check for command {command!r}")
    return out


# -- comparison with the seed ------------------------------------------------------


def _close(new: float, old: float, rel: float) -> bool:
    return abs(new - old) <= rel * abs(old) + 1e-300


def compare(command: str, got: dict, seed: dict) -> None:
    """Raise WrongAnswer when `got` contradicts the answer recorded at the seed."""
    if "undecided" in seed:
        _require(got["undecided"] <= seed["undecided"], "more unresolved degree than at the seed")
    if command in ("singularities", "classify"):
        _require(set(got["points"]) >= set(seed["points"]), "a singular point found at the seed is missing")
        if got["undecided"] == seed["undecided"]:
            _require(got["points"] == seed["points"], "different points with the same unresolved degree")
    if command == "classify":
        for point, verdict in seed["verdicts"].items():
            if verdict != "unknown":
                _require(got["verdicts"].get(point) == verdict, f"verdict changed at {point}")
    elif command == "euler-check":
        if seed["checkable"]:
            _require(got["checkable"], "identity no longer checkable")
            _require(got["sum_mu"] == seed["sum_mu"], "sum(mu) changed")
    elif command == "multiplicity":
        for point, mus in seed["mu"].items():
            if None not in mus:
                _require(got["mu"].get(point) == mus, f"mu changed at {point}")
    elif command == "certify":
        _require(len(got["certificates"]) == len(seed["certificates"]), "oval count changed")
        for new, old in zip(got["certificates"], seed["certificates"]):
            rel = new["quadrature_rel_err"] + old["quadrature_rel_err"]
            _require(new["stability"] == old["stability"], "stability changed")
            _require(_close(new["divergence_integral"], old["divergence_integral"], rel), "D moved beyond rel_err")
            _require(_close(new["period"], old["period"], rel), "T moved beyond rel_err")


def judge(command: str, rc, stdout: str, expect: dict, seed: dict | None) -> tuple[bool, dict, str]:
    """(ok, summary, reason) for one finished job; rc is None after a crash."""
    if rc is None:
        return False, {"rc": None}, "crashed"
    try:
        got = summarize(command, rc, stdout, expect)
        if seed is not None and seed.get("summary") is not None:
            compare(command, got, seed["summary"])
    except WrongAnswer as exc:
        return False, {"rc": rc}, str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return False, {"rc": rc}, f"malformed answer: {exc!r}"
    return True, got, ""


def fraction_free(value):
    """JSON-safe copy of a summary (Fractions become strings)."""
    if isinstance(value, dict):
        return {k: fraction_free(v) for k, v in value.items()}
    if isinstance(value, list):
        return [fraction_free(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value
