"""Layer spans for puiseuxpath, recorded from outside the package.

A Tracer wraps the public functions listed in LAYERS, both on the module or
class that defines them and on every puiseuxpath module that bound the same
object with ``from .x import f``. Recursive calls inside a module go through
its global name and are therefore wrapped too (the bridge in
``sdo.central_point`` nests under its caller). Each call appends one span
``[name, start, end, parent, item]`` to an in-memory list. A span's self
time is its duration minus the durations of its direct children, so a
recursive call is never counted twice. Hooks read output-derived counters
from the values and exceptions that cross each boundary.

``boxes`` is not wrapped: its operations take microseconds, so wrapping them
would measure the wrapper. Their time lands in the self time of the caller
(mostly ``algebraic.isolate_roots``).
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "puiseuxpath"

# (module, attribute) pairs; an attribute "Class.method" wraps a method
LAYERS = (
    ("sdo", "trace_path"),
    ("sdo", "central_point"),
    ("sdo", "fit_order"),
    ("sdo", "verify_reparametrization"),
    ("elimination", "central_system"),
    ("elimination", "eliminate_coordinate"),
    ("polynomials", "BiPoly.gcd"),
    ("polynomials", "BiPoly.separable_part"),
    ("curve", "normalize_curve"),
    ("curve", "expand_curve"),
    ("curve", "match_branches"),
    ("curve", "is_irreducible_over_Cmu"),
    ("puiseux", "expand"),
    ("algebraic", "isolate_roots"),
    ("algebraic", "roots_with_multiplicity"),
    ("algebraic", "FieldTower.ensure_prec"),
    ("pipeline", "compute_rho_sdo"),
    ("cli", "main"),
)

_GUARD_CAP = re.compile(r"exceeded the (\d+)-substitution budget")


def _coeff_bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


# ---------------------------------------------------------------------------
# hooks: (tracer, result, error) -> None, called after the span has closed


def _on_trace_path(t, res, err):
    if err is None:
        t.add("sdo.trace.samples", len(res.samples))


def _on_eliminate(t, res, err):
    if err is not None:
        t.add("elimination.eliminate_coordinate.failed")
        return
    coeffs = res.to_dict()
    t.high("elimination.eliminant.deg_v_max", res.deg_v)
    t.high("elimination.eliminant.deg_mu_max", res.deg_mu)
    t.add("elimination.eliminant.terms_sum", len(coeffs))
    t.high("elimination.eliminant.coeff_bits_max",
           max(map(_coeff_bits, coeffs.values()), default=0))


def _on_normalize(t, res, err):
    if err is None:
        t.add("curve.normalize_curve.deg_kept",
              res.normalized.deg_v == res.original.deg_v)


def _on_match(t, res, err):
    if err is None:
        t.add("curve.match_branches.matched_sum", len(res))


def _on_expand(t, res, err):
    if err is not None:
        m = _GUARD_CAP.search(str(err))
        if m:
            # the substitution counter stood at the cap when the guard fired
            cap = int(m.group(1))
            t.add("puiseux.expand.guard_trips")
            t.high("puiseux.expand.guard_cap_max", cap)
            t.add("puiseux.expand.substitutions_sum", cap)
        return
    t.add("puiseux.expand.branches_sum", len(res))
    t.add("puiseux.expand.terms_sum", sum(len(b.terms) for b in res))
    # iterations_used is the shared substitution counter when the branch
    # closed, so the largest value is the call's total
    t.add("puiseux.expand.substitutions_sum",
          max((b.iterations_used for b in res), default=0))
    t.high("puiseux.expand.tower_height_max",
           max((b.tower.height for b in res), default=0))
    t.high("puiseux.expand.degree_product_max",
           max((b.tower.degree_product() for b in res), default=1))


def _on_rho_sdo(t, res, err):
    if err is not None:
        return
    for d in res.details:
        t.add("pipeline.route." + d["route"].replace("-", "_"))
        t.add("pipeline.certified", bool(d.get("certified")))
        t.add("pipeline.canonical_coordinates")


HOOKS = {
    "sdo.trace_path": _on_trace_path,
    "elimination.eliminate_coordinate": _on_eliminate,
    "curve.normalize_curve": _on_normalize,
    "curve.match_branches": _on_match,
    "puiseux.expand": _on_expand,
    "pipeline.compute_rho_sdo": _on_rho_sdo,
}


# ---------------------------------------------------------------------------
# the recorder


class Tracer:
    """Wraps the layer functions, records spans and counters in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self.counts: Counter = Counter()
        self.highs: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, n=1) -> None:
        self.counts[name] += int(n)

    def high(self, name: str, value) -> None:
        self.highs[name] = max(self.highs.get(name, value), value)

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[2] = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(self, None, err)
                raise
            span[2] = perf_counter()
            stack.pop()
            if hook is not None:
                hook(self, result, None)
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYERS entry wherever the package bound it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for mod_name, _ in LAYERS:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, attr in LAYERS:
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            self._patch(owner, leaf, original, wrapper)
            if path:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> tuple[dict, Counter, float]:
    """Per-name self time and call count, and the summed root durations.

    A span's self time is its duration minus the durations of its direct
    children; grandchildren are already inside a child's duration.
    """
    child = [0.0] * len(spans)
    roots = 0.0
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            roots += end - start
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        own[name] += (end - start) - child[i]
        calls[name] += 1
    return own, calls, roots


# per-layer metric names in BENCHMARK.json order, with their units
PER_LAYER = (
    ("sdo.trace_path.calls", "count"),
    ("sdo.trace_path.self_s", "s"),
    ("sdo.central_point.calls", "count"),
    ("sdo.central_point.self_s", "s"),
    ("sdo.verify_reparametrization.self_s", "s"),
    ("sdo.fit_order.calls", "count"),
    ("sdo.fit_order.self_s", "s"),
    ("sdo.trace.samples", "count"),
    ("elimination.eliminate_coordinate.calls", "count"),
    ("elimination.eliminate_coordinate.self_s", "s"),
    ("elimination.eliminate_coordinate.failed", "count"),
    ("elimination.central_system.self_s", "s"),
    ("elimination.eliminant.deg_v_max", "degree"),
    ("elimination.eliminant.deg_mu_max", "degree"),
    ("elimination.eliminant.terms_sum", "count"),
    ("elimination.eliminant.coeff_bits_max", "bits"),
    ("polynomials.BiPoly.gcd.calls", "count"),
    ("polynomials.BiPoly.gcd.self_s", "s"),
    ("polynomials.BiPoly.separable_part.calls", "count"),
    ("polynomials.BiPoly.separable_part.self_s", "s"),
    ("curve.normalize_curve.calls", "count"),
    ("curve.normalize_curve.self_s", "s"),
    ("curve.normalize_curve.deg_kept_share", "ratio"),
    ("curve.expand_curve.self_s", "s"),
    ("curve.match_branches.self_s", "s"),
    ("curve.match_branches.matched_sum", "count"),
    ("curve.is_irreducible_over_Cmu.self_s", "s"),
    ("puiseux.expand.calls", "count"),
    ("puiseux.expand.self_s", "s"),
    ("puiseux.expand.guard_trips", "count"),
    ("puiseux.expand.guard_cap_max", "count"),
    ("puiseux.expand.branches_sum", "count"),
    ("puiseux.expand.terms_sum", "count"),
    ("puiseux.expand.substitutions_sum", "count"),
    ("puiseux.expand.tower_height_max", "count"),
    ("puiseux.expand.degree_product_max", "count"),
    ("algebraic.isolate_roots.calls", "count"),
    ("algebraic.isolate_roots.self_s", "s"),
    ("algebraic.roots_with_multiplicity.calls", "count"),
    ("algebraic.roots_with_multiplicity.self_s", "s"),
    ("algebraic.FieldTower.ensure_prec.calls", "count"),
    ("algebraic.FieldTower.ensure_prec.self_s", "s"),
    ("pipeline.compute_rho_sdo.self_s", "s"),
    ("pipeline.route.constant", "count"),
    ("pipeline.route.eliminated", "count"),
    ("pipeline.route.supplied", "count"),
    ("pipeline.route.order_fit", "count"),
    ("pipeline.certified", "count"),
    ("pipeline.canonical_coordinates", "count"),
    ("pipeline.certified_ratio", "ratio"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("other.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.passes", "count"),
)

# maxima and shares are reported as they are; everything else per pass
_NOT_PER_PASS = {
    name for name, unit in PER_LAYER
    if name.endswith(("_max", "_share", "_ratio")) or name.startswith("trace.")
}


def per_layer_metrics(tracer: Tracer, passes: int, traced_wall: float,
                      overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric, summed counts and times divided by passes."""
    own, calls, roots = self_times(tracer.spans)
    raw: dict[str, float] = {}
    for name, _ in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            raw[name] = calls.get(layer, 0)
        elif kind == "self_s":
            raw[name] = own.get(layer, 0.0)
        else:
            raw[name] = tracer.counts.get(name, 0)
    raw.update(tracer.highs)
    raw["other.self_s"] = traced_wall - roots
    norm = calls.get("curve.normalize_curve", 0)
    raw["curve.normalize_curve.deg_kept_share"] = (
        tracer.counts["curve.normalize_curve.deg_kept"] / norm if norm else 0.0)
    coords = tracer.counts["pipeline.canonical_coordinates"]
    raw["pipeline.certified_ratio"] = (
        tracer.counts["pipeline.certified"] / coords if coords else 0.0)
    raw["trace.overhead_s"] = overhead_s
    raw["trace.passes"] = passes
    return {name: (raw[name] if name in _NOT_PER_PASS else raw[name] / passes)
            for name, _ in PER_LAYER}
