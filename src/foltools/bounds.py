"""Closed-form bound calculators and the exhaustive partition maximization.

All computations are plain integer arithmetic; the reports record their
inputs so every value is recomputable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError


@dataclass(frozen=True)
class BoundReport:
    theorem: str
    inputs: dict
    bound: int
    notes: tuple[str, ...] = ()
    clamped: bool = False

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "inputs": self.inputs,
            "bound": self.bound,
            "notes": list(self.notes),
            "clamped": self.clamped,
        }


def harnack_bound(n: int, orders: list[int] | None = None) -> BoundReport:
    """Oval bound for a degree-n real curve with singular points of the
    given orders; negative raw values are clamped to 0 (and flagged)."""
    if n < 1:
        raise PreconditionError("degree must be >= 1")
    orders = orders or []
    if any(v < 2 for v in orders):
        raise PreconditionError("singular orders must be >= 2")
    raw = thm1_bound(n) - sum(v * (v - 1) for v in orders)  # Harnack's cap for a smooth curve
    clamped = raw < 0
    return BoundReport(
        "harnack",
        {"n": n, "orders": list(orders), "raw": raw},
        max(raw, 0),
        clamped=clamped,
    )


LOGARITHMIC_NOTE = (
    "equality forces a reducible curve and a logarithmic foliation "
    "with weights satisfying sum(lambda_i * deg F_i) = 0"
)


def nodal_degree_bound(m: int) -> BoundReport:
    """Degree cap m+2 for nodal invariant curves, with the equality note."""
    if m < 0:
        raise PreconditionError("foliation degree must be >= 0")
    return BoundReport("degree-nodal", {"m": m}, m + 2, notes=(LOGARITHMIC_NOTE,))


def nondicritical_degree_bound(m: int) -> BoundReport:
    """Degree cap m+2 for invariant curves carrying no dicritical singularity."""
    if m < 0:
        raise PreconditionError("foliation degree must be >= 0")
    return BoundReport("degree-nondicritical", {"m": m}, m + 2)


def thm1_bound(m: int) -> int:
    """Cycle bound for degree-m fields with only nodal invariant curves."""
    if m < 1:
        raise PreconditionError("degree must be >= 1")
    return (m - 1) * (m - 2) // 2 + (1 if m % 2 == 0 else 0)


def thm2_bound(m: int, r_zero: bool) -> int:
    """Cycle bound in the non-dicritical case, split on the radial part."""
    if m < 1:
        raise PreconditionError("degree must be >= 1")
    if r_zero:
        return m * (m - 1) // 2 + (1 if m % 2 == 0 else 0)
    return (m + 1) * m // 2 + (1 if m % 2 == 0 else 0)


def thm4_bound(m: int) -> int:
    """Cycle bound with no dicritical singularities and >= 3 invariant curves."""
    if m < 2:
        raise PreconditionError("degree must be >= 2")
    return thm1_bound(m)


# -- partition maximization -----------------------------------------------------


def _partitions(total: int, parts: int, maximum: int | None = None):
    """Non-increasing partitions of `total` into exactly `parts` positive ints."""
    if parts == 1:
        if total >= 1 and (maximum is None or total <= maximum):
            yield (total,)
        return
    cap = total - parts + 1
    if maximum is not None:
        cap = min(cap, maximum)
    for first in range(cap, 0, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def mk_value(m: int, k: int, partition: list[int]) -> tuple[int, int]:
    """(oval sum of the partition, envelope value M(k)).

    The oval sum adds the per-degree cap (d-1)(d-2)/2 + a_d over the parts;
    the envelope is (m+2-k)(m+1-k)/2 + sum of the parity bonuses.
    """
    if k < 3 or k > m + 2:
        raise PreconditionError(f"k must lie in [3, {m + 2}]")
    if len(partition) != k or any(d < 1 for d in partition) or sum(partition) != m + 2:
        raise PreconditionError(f"partition must be {k} positive integers summing to {m + 2}")
    bonuses = sum(1 for d in partition if d % 2 == 0)
    value = sum((d - 1) * (d - 2) // 2 for d in partition) + bonuses
    envelope = (m + 2 - k) * (m + 1 - k) // 2 + bonuses
    return value, envelope


@dataclass(frozen=True)
class MkResult:
    m: int
    k: int
    partition: tuple[int, ...]
    value: int

    def to_dict(self) -> dict:
        return {"m": self.m, "k": self.k, "partition": list(self.partition), "value": self.value}


def mk_argmax(m: int) -> MkResult:
    """Exhaustive maximum of the partition oval sum over k in [3, m+2].

    Ties prefer smaller k, then lexicographically larger partitions, so the
    result is deterministic.
    """
    if m < 1:
        raise PreconditionError("degree must be >= 1")
    best: MkResult | None = None
    for k in range(3, m + 3):
        for partition in _partitions(m + 2, k):
            value, _ = mk_value(m, k, list(partition))
            if best is None or value > best.value:
                best = MkResult(m, k, partition, value)
    assert best is not None
    return best


def bound_table(ms: list[int]) -> list[dict]:
    """One row per degree: every closed-form bound side by side."""
    rows = []
    for m in ms:
        rows.append(
            {
                "m": m,
                "nodal_cycles": thm1_bound(m),
                "nondicritical_cycles_r0": thm2_bound(m, True),
                "nondicritical_cycles_r1": thm2_bound(m, False),
                "three_curve_cycles": thm4_bound(m) if m >= 2 else None,
                "degree_cap": m + 2,
            }
        )
    return rows
