"""Per-layer spans and counters, installed from outside the program.

The tracer wraps public functions at every module attribute through which
one foltools module calls another (for example `foltools.realtopo.count_real_roots`
as well as `foltools.uniroots.count_real_roots`), and a few methods on
`MultiPoly` and `GaussianRational`.  Spans (name, start, end, parent, job)
are kept in memory; `restore` puts every patched attribute back.

Functions that run per vertex or per coefficient (`MultiPoly.partial`,
`MultiPoly.evaluate`, `MultiPoly.__mul__`, Q(i) operations and
`newton_project`) are counted, not timed: a span around them would time the
wrapper.  Their time stays in the calling layer's self time.
"""

from __future__ import annotations

import sys
import time

# layer -> functions that get a span
SPANS = {
    "cli": ("run",),
    "textio": ("parse_system", "format_system", "parse_poly", "print_poly", "report_json"),
    "polyring": (
        "poly_gcd",
        "resultant",
        "exact_divide",
        "is_squarefree",
        "homogenize",
        "dehomogenize",
        "leading_form",
    ),
    "uniroots": ("qi_roots", "count_real_roots", "ugcd", "usquarefree"),
    "series": ("compose_poly",),
    "fields": (
        "invariance_check",
        "lie_derivative",
        "divergence",
        "iif_check",
        "darboux_check",
        "projectivize",
        "deprojectivize",
        "infinity_invariant",
    ),
    "singularities": (
        "affine_singularities",
        "infinite_singularities",
        "pair_common_zeros",
        "classify_dicritical",
        "curve_singularities",
        "curve_singularities_decided",
        "is_nodal",
        "residual_avoids_curve",
    ),
    "branches": (
        "local_branches",
        "branch_multiplicity",
        "euler_identity_check",
        "corollary2_check",
        "genus_and_chi",
        "infinity_branch_data",
    ),
    "construct": ("logarithmic_form", "eee_system", "gallery", "thm2b_configuration"),
    "realtopo": ("count_ovals", "compactness_check", "default_box", "trace_oval", "refine_polyline"),
    "cycles": ("certify_cycle", "divergence_integral", "location_check"),
}

# (module, class or None, attribute) -> counter name
COUNTS = {
    ("polyring", "MultiPoly", "__mul__"): "polyring.mul",
    ("polyring", "MultiPoly", "partial"): "polyring.partial",
    ("polyring", "MultiPoly", "evaluate"): "polyring.evaluate",
    ("gaussian", "GaussianRational", "__mul__"): "gaussian.mul",
    ("gaussian", "GaussianRational", "__rmul__"): "gaussian.mul",
    ("gaussian", "GaussianRational", "__add__"): "gaussian.add",
    ("gaussian", "GaussianRational", "__radd__"): "gaussian.add",
    ("gaussian", "GaussianRational", "__sub__"): "gaussian.add",
    ("gaussian", "GaussianRational", "__rsub__"): "gaussian.add",
    ("gaussian", "GaussianRational", "__truediv__"): "gaussian.div",
    ("gaussian", "GaussianRational", "__rtruediv__"): "gaussian.div",
    ("realtopo", None, "newton_project"): "realtopo.newton_project",
}

ENUMERATIONS = ("singularities.affine_singularities", "singularities.infinite_singularities")
PACKAGE = "foltools"


class Tracer:
    """Spans and counters for one traced run; install, run jobs, restore."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, job id)
        self.counts: dict[str, int] = {}
        self.facts: dict[str, float] = {}  # outcome tallies for the ratio metrics
        self.job = None
        self._stack: list[int] = []
        self._patched: list = []  # (owner, attribute, original)

    # -- installation ----------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items()) if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        modules = self._modules()
        for layer, names in SPANS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._span(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for (layer, cls, attr), key in COUNTS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            owner = getattr(home, cls) if cls else home
            self.counts.setdefault(key, 0)
            self._patch(owner, attr, self._counter(key, vars(owner)[attr]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def leftovers(self) -> list[str]:
        """Names of foltools attributes that still hold a tracing wrapper."""
        found = []
        for module in self._modules():
            owners = [module] + [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
            for owner in owners:
                for attr, value in vars(owner).items():
                    if getattr(value, "__tracer_wrapper__", False):
                        found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return found

    # -- wrappers --------------------------------------------------------------

    def _counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__tracer_wrapper__ = True
        counted.__wrapped__ = fn
        return counted

    def _span(self, name: str, fn):
        tracer = self
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.job)
            if observe is not None:
                observe(tracer.facts, result)
            return result

        spanned.__tracer_wrapper__ = True
        spanned.__wrapped__ = fn
        return spanned

    # -- results ---------------------------------------------------------------

    def layer_times(self) -> tuple[dict, dict, dict]:
        """(self seconds per layer, inclusive seconds per span name, calls per span name).

        Inclusive time counts only the outermost of nested spans of one name,
        so recursion is not counted twice.
        """
        child = [0.0] * len(self.spans)
        self_s: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            layer = name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[index]
            calls[name] = calls.get(name, 0) + 1
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        return self_s, inclusive, calls

    def outermost(self, names) -> float:
        """Seconds inside any of the named spans, not counting them twice."""
        names = set(names)
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] not in names:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                total += end - start
        return total

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def dump(self, path) -> None:
        """Write the spans as tab-separated lines: name start end parent job."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\tjob\n")
            for span in self.spans:
                out.write("\t".join(str(v) for v in span) + "\n")


def _add(facts: dict, key: str, value: float) -> None:
    facts[key] = facts.get(key, 0) + value


def _enumeration(facts: dict, enum) -> None:
    _add(facts, "enumerations", 1)
    _add(facts, "enumerations_decided", 1 if enum.undecided == 0 else 0)
    _add(facts, "singular_points", len(enum.points))
    _add(facts, "undecided_degree", enum.undecided)


def _roots(facts: dict, report) -> None:
    found = len(report.roots)
    _add(facts, "roots_found", found)
    _add(facts, "root_degree", found + report.residual_degree + report.uncertain_degree)


def _ovals(facts: dict, ovals) -> None:
    _add(facts, "ovals_found", ovals.count)
    _add(facts, "ovals_certified", ovals.certified_count)


def _traced(facts: dict, points) -> None:
    _add(facts, "trace_points", len(points))


_OBSERVERS = {
    "singularities.affine_singularities": _enumeration,
    "singularities.infinite_singularities": _enumeration,
    "uniroots.qi_roots": _roots,
    "realtopo.count_ovals": _ovals,
    "realtopo.trace_oval": _traced,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark as name -> (value, unit)."""
    self_s, inclusive, calls = tracer.layer_times()
    f, c = tracer.facts, tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for layer in SPANS:
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for key in ("gaussian.mul", "gaussian.add", "gaussian.div", "polyring.mul", "polyring.partial", "polyring.evaluate", "realtopo.newton_project"):
        out[f"{key}.calls"] = (c.get(key, 0), "count")
    for name in (
        "polyring.poly_gcd",
        "polyring.resultant",
        "polyring.exact_divide",
        "fields.invariance_check",
        "uniroots.qi_roots",
        "uniroots.count_real_roots",
        "branches.branch_multiplicity",
        "series.compose_poly",
        "realtopo.count_ovals",
        "realtopo.refine_polyline",
        "textio.parse_system",
    ):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in (
        "polyring.poly_gcd",
        "polyring.resultant",
        "uniroots.qi_roots",
        "uniroots.count_real_roots",
        "realtopo.count_ovals",
        "realtopo.trace_oval",
        "cycles.divergence_integral",
        "cycles.location_check",
    ):
        out[f"{name}.s"] = (inclusive.get(name, 0.0), "s")
    out["singularities.enumeration.s"] = (tracer.outermost(ENUMERATIONS), "s")
    out["singularities.decided_ratio"] = (_ratio(f.get("enumerations_decided", 0), f.get("enumerations", 0)), "ratio")
    undecided = f.get("undecided_degree", 0)
    out["singularities.unresolved_degree_ratio"] = (_ratio(undecided, undecided + f.get("singular_points", 0)), "ratio")
    out["uniroots.qi_roots.resolved_ratio"] = (_ratio(f.get("roots_found", 0), f.get("root_degree", 0)), "ratio")
    out["realtopo.certified_ratio"] = (_ratio(f.get("ovals_certified", 0), f.get("ovals_found", 0)), "ratio")
    out["realtopo.trace_points"] = (f.get("trace_points", 0), "count")
    return out
