"""Outside-in tracer for wcsg's numerical layers.

The tracer wraps public functions of the package from the benchmark's side:
each wrapped call is a span, and a layer's self time is its spans' time minus
the time of the spans they contain. Several modules import layer functions by
value (``spaces`` binds ``disc_integral``, ``circle_mean_p`` and
``derivative_on_grid``; ``semigroup`` binds ``norm``, ``co_seminorm`` and
``certified_sup``; ``suites`` binds ``semiflow_from_generator``), so
:meth:`Tracer.install` rebinds every module attribute of ``wcsg`` that refers
to a wrapped function, not only the defining one.

Spans are aggregated in memory as ``<layer>.<stat>`` sums; nothing is written
until the benchmark reads :attr:`Tracer.stats`.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from perfbench.workloads import SUITE_ORDER

# Per-layer metrics in the order BENCHMARK.json lists them: (name, unit, better).
_COUNT, _SECONDS = "count", "s"


def _layer(name, *stats):
    units = {
        "calls": (_COUNT, "lower"),
        "points": (_COUNT, "lower"),
        "ring_evals": (_COUNT, "lower"),
        "integrand_points": (_COUNT, "lower"),
        "useful_ratio": ("ratio", "higher"),
        "self_s": (_SECONDS, "lower"),
        "errors": (_COUNT, "lower"),
        "s": (_SECONDS, "lower"),
        "bytes": ("bytes", "lower"),
        "overhead_s": (_SECONDS, "lower"),
        "wall_s": (_SECONDS, "lower"),
    }
    return [(f"{name}.{s}", *units[s]) for s in stats]


_SEMIGROUP_FUNCS = [
    "theoretical_bound",
    "operator_norm_lower_bound",
    "semigroup_residual",
    "generator_residual",
    "continuity_probe",
]

PER_LAYER_METRICS = (
    _layer("holo.cauchy_derivative_grid", "calls", "points", "ring_evals", "self_s", "errors")
    + _layer("holo.disc_integral", "calls", "integrand_points", "self_s", "errors")
    + _layer("holo.circle_mean_p", "calls", "self_s", "errors")
    + _layer("holo.annulus_integral", "calls", "self_s", "errors")
    + _layer("holo.real_derivative_grid", "calls", "points", "self_s", "errors")
    + _layer("spaces.norm", "calls", "self_s", "errors")
    + _layer("spaces.co_seminorm", "calls", "self_s", "errors")
    + _layer("spaces.certified_sup", "calls", "points", "useful_ratio", "self_s", "errors")
    + _layer("flows.ode_eval", "calls", "points", "self_s", "errors")
    + _layer("cocycles.integral_eval", "calls", "points", "self_s", "errors")
    + _layer("cocycles.cocycle_law_residual", "calls", "self_s", "errors")
    + [m for f in _SEMIGROUP_FUNCS for m in _layer(f"semigroup.{f}", "calls", "self_s", "errors")]
    + _layer("exprs.to_holofn", "calls")
    + _layer("reporting.emit", "s", "bytes")
    + [m for s in SUITE_ORDER for m in _layer(f"suites.{s}", "s")]
    + _layer("trace", "wall_s", "overhead_s")
)


class Tracer:
    """Span aggregation plus the wrappers that feed it."""

    def __init__(self):
        self.stats = defaultdict(float)
        self._open = []  # time covered by child spans, one entry per open span
        self._originals = []  # (module, attribute, original) for uninstall

    # -- spans ---------------------------------------------------------------
    def _enter(self) -> float:
        self._open.append(0.0)
        return time.perf_counter()

    def _exit(self, layer: str, start: float) -> float:
        elapsed = time.perf_counter() - start
        child = self._open.pop()
        if self._open:
            self._open[-1] += elapsed
        self.stats[f"{layer}.self_s"] += elapsed - child
        self.stats[f"{layer}.calls"] += 1
        return elapsed

    def timed(self, layer: str, fn, *args, **kwargs):
        """Call fn as one span of ``layer``; its whole duration is ``<layer>.s``."""
        start = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.stats[f"{layer}.s"] += self._exit(layer, start)

    def wrap(self, layer: str, fn, before=None):
        """A traced stand-in for fn.

        ``before(arguments)`` may count work from the bound arguments and
        replace some of them; it may return a callable run after the call.
        """
        from wcsg.errors import WcsgError

        sig = inspect.signature(fn)
        stats = self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = None
            if before is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after = before(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            start = self._enter()
            try:
                out = fn(*args, **kwargs)
            except WcsgError:
                stats[f"{layer}.errors"] += 1
                raise
            finally:
                self._exit(layer, start)
            if after is not None:
                after()
            return out

        return traced

    # -- layer hooks ---------------------------------------------------------
    def _count_points(self, key: str, arg: str):
        def before(a):
            self.stats[key] += np.size(a[arg])

        return before

    def _cauchy(self, a):
        n = np.size(a["zs"])
        self.stats["holo.cauchy_derivative_grid.points"] += n
        self.stats["holo.cauchy_derivative_grid.ring_evals"] += n * int(a["n_nodes"])

    def _disc_integral(self, a):
        g = a["g"]

        def counted(pts):
            self.stats["holo.disc_integral.integrand_points"] += np.size(pts)
            return g(pts)

        a["g"] = counted

    def _certified_sup(self, a):
        values_at = a["values_at"]
        sizes = []

        def counted(pts):
            sizes.append(np.size(pts))
            return values_at(pts)

        a["values_at"] = counted

        def after():
            # the last refinement level is the one whose maximum is reported
            self.stats["spaces.certified_sup.points"] += sum(sizes)
            self.stats["spaces.certified_sup.level2_points"] += sizes[-1]

        return after

    def _evaluator_factory(self, layer: str, factory):
        """Wrap a constructor whose result carries an ``eval`` callable."""
        count = self._count_points(f"{layer}.points", "z")

        @functools.wraps(factory)
        def build(*args, **kwargs):
            obj = factory(*args, **kwargs)
            return dataclasses.replace(obj, eval=self.wrap(layer, obj.eval, count))

        return build

    # -- installation --------------------------------------------------------
    def _targets(self):
        import wcsg.cocycles
        import wcsg.exprs
        import wcsg.flows
        import wcsg.holo
        import wcsg.semigroup
        import wcsg.spaces

        holo, spaces = wcsg.holo, wcsg.spaces
        targets = [
            (holo, "cauchy_derivative_grid", self.wrap(
                "holo.cauchy_derivative_grid", holo.cauchy_derivative_grid, self._cauchy)),
            (holo, "disc_integral", self.wrap(
                "holo.disc_integral", holo.disc_integral, self._disc_integral)),
            (holo, "circle_mean_p", self.wrap("holo.circle_mean_p", holo.circle_mean_p)),
            (holo, "annulus_integral", self.wrap("holo.annulus_integral", holo.annulus_integral)),
            (holo, "real_derivative_grid", self.wrap(
                "holo.real_derivative_grid", holo.real_derivative_grid,
                self._count_points("holo.real_derivative_grid.points", "xs"))),
            (spaces, "norm", self.wrap("spaces.norm", spaces.norm)),
            (spaces, "co_seminorm", self.wrap("spaces.co_seminorm", spaces.co_seminorm)),
            (spaces, "certified_sup", self.wrap(
                "spaces.certified_sup", spaces.certified_sup, self._certified_sup)),
            (wcsg.flows, "semiflow_from_generator", self._evaluator_factory(
                "flows.ode_eval", wcsg.flows.semiflow_from_generator)),
            (wcsg.cocycles, "cocycle_from_g", self._evaluator_factory(
                "cocycles.integral_eval", wcsg.cocycles.cocycle_from_g)),
            (wcsg.cocycles, "cocycle_law_residual", self.wrap(
                "cocycles.cocycle_law_residual", wcsg.cocycles.cocycle_law_residual)),
            (wcsg.exprs, "to_holofn", self.wrap("exprs.to_holofn", wcsg.exprs.to_holofn)),
        ]
        for name in _SEMIGROUP_FUNCS:
            fn = getattr(wcsg.semigroup, name)
            targets.append((wcsg.semigroup, name, self.wrap(f"semigroup.{name}", fn)))
        return targets

    def install(self) -> int:
        """Rebind every import site of each wrapped function; returns the count.

        Import the package's modules first: a module imported later keeps the
        original bindings.
        """
        import wcsg.cli  # noqa: F401  (imports every module that binds a layer)

        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "wcsg" or name.startswith("wcsg.")) and m is not None]
        sites = 0
        for home, attr, wrapper in self._targets():
            original = getattr(home, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        sites += 1
        return sites

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._originals):
            setattr(mod, key, original)
        self._originals.clear()

    def metrics(self) -> dict:
        """Every per-layer metric, with 0 for layers the run never reached."""
        out = {}
        for name, unit, _ in PER_LAYER_METRICS:
            if name == "spaces.certified_sup.useful_ratio":
                pts = self.stats["spaces.certified_sup.points"]
                value = self.stats["spaces.certified_sup.level2_points"] / pts if pts else 0.0
            else:
                value = self.stats.get(name, 0.0)
            if unit == "count":
                value = int(value)
            out[name] = {"value": value, "unit": unit}
        return out


def hand_count_problems() -> list:
    """Traced counts on a case small enough to count by hand.

    The H^2 norm of e_2 takes one circle mean at r_cap and two more for the
    boundary-extrapolation increment, with no area integral and no Cauchy
    circle. Returns a description of each count that differs.
    """
    from wcsg import holo, spaces

    tracer = Tracer()
    tracer.install()
    try:
        spaces.norm(spaces.SpaceSpec.hardy(2.0), holo.monomial(2))
    finally:
        tracer.uninstall()
    expected = {
        "spaces.norm.calls": 1,
        "holo.circle_mean_p.calls": 3,
        "holo.disc_integral.calls": 0,
        "holo.cauchy_derivative_grid.calls": 0,
        "spaces.certified_sup.calls": 0,
    }
    return [
        f"{key}: traced {tracer.stats.get(key, 0)}, expected {want}"
        for key, want in expected.items()
        if tracer.stats.get(key, 0) != want
    ]
