"""Experiment suites: validated configs in, deterministic case lists out.

Each suite takes a plain-dict config (JSON-shaped), validates it strictly
(unknown keys are errors, not warnings), runs its diagnostics, and returns
reporting Cases. A failing case is recorded with its error and verdict
"error"; it never aborts the rest of the sweep.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

import numpy as np

from . import cocycles, exprs, flows, holo, semigroup, spaces
from .errors import ConfigError, DegenerateFixedPoint, WcsgError
from .flows import CATALOG_PARAMS, Semiflow, make_catalog_semiflow, semiflow_from_generator
from .holo import HoloFn, QuadPolicy
from .reporting import Case
from .semigroup import WcSemigroup
from .spaces import SpaceSpec

LN2 = 0.6931471805599453


# ---------------------------------------------------------------------------
# config reading and object building
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Required:
    """The schema entry of a key without a default, read as ``kind``."""

    kind: object


def _coerce(v, kind, path: str):
    """One config value read as its kind (see :func:`_read`). A number is a
    finite JSON number, not a boolean or a string, and an int takes only
    integral values."""
    if kind in (int, float):
        try:
            if (isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)
                    or (kind is int and not float(v).is_integer())):
                raise ValueError
            return kind(v)
        except (ValueError, OverflowError):
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(path, f"expected {noun}, got {v!r}") from None
    if kind is complex:
        if not isinstance(v, dict):
            return complex(_coerce(v, float, path))
        v = _read(v, path, {"re": 0.0, "im": 0.0})
        return complex(v["re"], v["im"])
    if kind is bool and not isinstance(v, bool):
        raise ConfigError(path, f"expected true or false, got {v!r}")
    if kind is dict and not isinstance(v, dict):
        raise ConfigError(path, f"expected an object, got {type(v).__name__}")
    if isinstance(kind, list) and not isinstance(v, list):
        raise ConfigError(path, f"expected a list, got {type(v).__name__}")
    if kind == [float]:
        if not v:
            raise ConfigError(path, "expected a nonempty list of numbers")
        return [_coerce(x, float, f"{path}[{i}]") for i, x in enumerate(v)]
    return v


def _read(cfg: dict, path: str, schema: dict, why: str = "unknown key") -> dict:
    """The values of the config object ``cfg`` at ``path``, one per entry of
    ``schema``; any other key of ``cfg`` is an error, for the reason ``why``.

    An entry is a default, read as its type and written back into ``cfg``
    when the key is absent, so that the report's echo shows every value a
    run used; a type, for an optional key, which reads as None when absent;
    or ``Required(kind)``. The kinds are bool, int, float, complex (a number
    or ``{re, im}``; a default is written back as ``{re, im}``, which the
    echo re-reads), dict (an object; null reads, and is written back, as
    ``{}``), ``[]`` (any list), ``[float]`` (a nonempty ladder of numbers, as
    a nonempty list default reads) and ``object`` (anything, as a string
    default reads, for its builder to check). Null for any other kind is an
    error.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(path, f"expected an object, got {type(cfg).__name__}")
    for key in cfg:
        if key not in schema:
            raise ConfigError(f"{path}.{key}", why)
    values = {}
    for key, entry in schema.items():
        default = not isinstance(entry, (Required, type))
        kind = entry.kind if isinstance(entry, Required) else entry
        if default:
            kind = ([float] if entry else []) if isinstance(entry, list) else type(entry)
        if key in cfg:
            if kind is dict and cfg[key] is None:
                cfg[key] = {}
            values[key] = _coerce(cfg[key], kind, f"{path}.{key}")
        elif default:
            values[key] = entry.copy() if isinstance(entry, (dict, list)) else entry
            cfg[key] = {"re": entry.real, "im": entry.imag} if kind is complex else values[key]
        elif isinstance(entry, Required):
            raise ConfigError(f"{path}.{key}", "missing required key")
        else:
            values[key] = None
    return values


def _variant(cfg: dict, path: str, tag: str, variants: dict, common=None) -> dict:
    """Check the keys of an object whose ``tag`` key names its variant (a
    space kind, a cocycle type), and return its schema: ``tag``, the
    variant's own entries and the ``common`` ones. An object of missing or
    unknown variant may hold any variant's keys; its builder rejects it."""
    kind, common = cfg.get(tag) if isinstance(cfg, dict) else None, common or {}
    if isinstance(kind, str) and kind in variants:
        schema = {tag: object, **variants[kind], **common}
        why = f"not a key of {tag} {kind!r}"
    else:
        schema, why = {tag: Required(object), **common}, "unknown key"
        for own in variants.values():
            schema.update(dict.fromkeys(own, object))
    _read(cfg, path, dict.fromkeys(schema, object), why)
    return schema


def _in_range(values: dict, path: str, positive=(), nonnegative=()) -> None:
    """Check the values read at ``path``: each key of ``positive`` that is set
    must be > 0, and each key of ``nonnegative`` >= 0. A tolerance, cap or
    radius of 0 or less would make its verdict or grid vacuous."""
    for key in positive:
        if values[key] is not None and not values[key] > 0:
            raise ConfigError(f"{path}.{key}", f"must be positive, got {values[key]!r}")
    for key in nonnegative:
        if not values[key] >= 0:
            raise ConfigError(f"{path}.{key}", f"must be >= 0, got {values[key]!r}")


@contextlib.contextmanager
def _config_errors(path: str):
    """Report a library error raised while building from the config object at
    ``path`` as a ConfigError there."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, WcsgError) as e:
        raise ConfigError(path, str(e))


def _expr(spec, domain, path: str) -> HoloFn:
    """Compile a config expression string; anything else is a ConfigError."""
    if not isinstance(spec, str):
        raise ConfigError(path, f"expected an expression string, got {spec!r}")
    try:
        return exprs.to_holofn(spec, domain)
    except ValueError as e:
        raise ConfigError(path, f"bad expression: {e}")


# Each space kind's own entries (spaces.SPACE_PARAMS); every kind also takes a ``policy``.
_SPACE_KEYS = {kind: {k: Required(float) if d is None else d for k, d in own.items()}
               for kind, own in spaces.SPACE_PARAMS.items()}


def build_space(cfg: dict, path: str = "space") -> SpaceSpec:
    values = _read(cfg, path, _variant(cfg, path, "kind", _SPACE_KEYS, {"policy": {}}))
    policy = _read(values["policy"], f"{path}.policy",
                   {f.name: f.default for f in dataclasses.fields(QuadPolicy)})
    with _config_errors(f"{path}.policy"):
        values["policy"] = QuadPolicy(**policy)
    if not (isinstance(values["kind"], str) and values["kind"] in _SPACE_KEYS):
        raise ConfigError(f"{path}.kind", f"unknown space kind {values['kind']!r}")
    with _config_errors(path):
        return SpaceSpec(**values)


def build_flow(cfg: dict, path: str = "flow", domain=None) -> Semiflow:
    """A catalog or ODE flow. An ODE generator is compiled on ``domain``, the
    case's domain, or without one on the disc unless it uses x."""
    v = _read(cfg, path, dict.fromkeys(("name", "params", "generator"), object))
    name, gen = v["name"], v["generator"]
    if (name is None) == (gen is None):
        raise ConfigError(path, "give exactly one of 'name' (catalog) or 'generator' (ODE)")
    if name is None:
        _read(cfg, path, {"generator": object}, "not a key of an ODE flow")
        with _config_errors(path):
            return semiflow_from_generator(_expr(gen, domain, f"{path}.generator"))
    own = CATALOG_PARAMS.get(name) if isinstance(name, str) else None
    if own is None:
        raise ConfigError(path, f"no catalog semiflow named {name!r}")
    params = _read(cfg, path, {"name": object, "params": {}}, "not a key of a catalog flow")
    params = _read(params["params"], f"{path}.params", own, f"not a parameter of {name}")
    with _config_errors(path):
        return make_catalog_semiflow(name, params)


# The own entries of each cocycle type.
_COCYCLE_KEYS = {"trivial": {}, "integral": {"g": Required(object)}, "derivative": {},
                 "coboundary": {"omega": Required(object), "zeros": []}}


def build_cocycle(cfg: dict, phi: Semiflow, path: str = "cocycle") -> cocycles.Semicocycle:
    v = _read(cfg, path, _variant(cfg, path, "type", _COCYCLE_KEYS))
    kind = v["type"]
    with _config_errors(path):
        if kind == "trivial":
            return cocycles.trivial_cocycle()
        if kind == "integral":
            return cocycles.cocycle_from_g(_expr(v["g"], phi.domain, f"{path}.g"), phi)
        if kind == "derivative":
            return cocycles.derivative_cocycle(phi)
        if kind == "coboundary":
            omega = _expr(v["omega"], phi.domain, f"{path}.omega")
            orders = {}
            for i, item in enumerate(v["zeros"]):
                zero = _read(item, f"{path}.zeros[{i}]",
                             {"re": 0.0, "im": 0.0, "order": Required(int)})
                orders[complex(zero["re"], zero["im"])] = zero["order"]
            return cocycles.coboundary(omega, phi, orders)
    raise ConfigError(f"{path}.type", f"unknown cocycle type {kind!r}")


_NAMED_FUNCTIONS = {
    "one": lambda dom: holo.one(dom),
    "singular-inner": lambda dom: holo.singular_inner(),
}


def build_function(spec, domain, path: str) -> HoloFn:
    if not isinstance(spec, str):
        raise ConfigError(path, "expected a function name or expression string")
    if spec in _NAMED_FUNCTIONS:
        return _NAMED_FUNCTIONS[spec](domain)
    if spec.startswith("e_"):
        try:
            return holo.monomial(int(spec[2:]), domain)
        except ValueError as e:
            raise ConfigError(path, f"bad monomial name: {e}")
    return _expr(spec, domain, path)


def _sweep(sweep: dict, ts, rmax: float, n: int):
    """The sweep section: sample times, grid radius and grid density.

    The laws hold for times t >= 0 only, so negative times are rejected. A
    grid with no angles or no radius collapses to the origin, where every
    law holds trivially, so both are rejected too."""
    v = _read(sweep, "sweep", {"ts": ts, "grid_rmax": rmax, "grid_n": n})
    _in_range(v, "sweep", positive=("grid_rmax",))
    for i, t in enumerate(v["ts"]):
        if t < 0:
            raise ConfigError(f"sweep.ts[{i}]", f"must be >= 0, got {t!r}")
    if v["grid_n"] < 1:
        raise ConfigError("sweep.grid_n", f"must be >= 1, got {v['grid_n']!r}")
    return v["ts"], v["grid_rmax"], v["grid_n"]


# The entries of a case that builds a semigroup.
_SEMIGROUP = {"space": Required(dict), "flow": Required(dict), "cocycle": {"type": "trivial"}}


def _build_semigroup(case: dict, path: str) -> WcSemigroup:
    """The semigroup of a case from its ``space``, ``flow`` and ``cocycle``."""
    space = build_space(case["space"], f"{path}.space")
    phi = build_flow(case["flow"], f"{path}.flow", space.domain)
    return WcSemigroup(phi, build_cocycle(case["cocycle"], phi, f"{path}.cocycle"), space)


def _grid_for(domain, rmax: float, n: int, key: str):
    """The sample grid of every law, generator and fixed-point check: the
    2n + 1 points of [-rmax, rmax] on the real line, and on the disc the
    origin and n angles on each of 4 radii up to rmax, which must lie inside
    the open disc. ``key`` is the config path of rmax."""
    if domain.kind == "real":
        return flows.real_sample_grid(rmax, 2 * n + 1)
    if rmax >= 1:
        raise ConfigError(key, f"a disc grid must lie inside the unit disc, got {rmax!r}")
    return flows.disc_sample_grid(rmax, 4, n)


def _guarded(case_id: str, inputs: dict, run) -> Case:
    """The one place a Case is built. ``run()`` gives ``(inputs, numbers, ok,
    rows)``; the report writes rows only for a case that has some. If it
    raises a WcsgError, the case is an error case with the given ``inputs``."""
    try:
        inputs, numbers, ok, rows = run()
    except WcsgError as e:
        return Case(id=case_id, inputs=inputs, numbers={}, verdict="error", error=str(e))
    return Case(id=case_id, inputs=inputs, numbers=numbers, verdict=bool(ok), rows=rows)


def _run_cases(entries: list, key: str, schema: dict, id_prefix: str, run) -> list:
    """The case loop: ``run(values, path)`` for each entry of the config's
    ``key`` list, its values read against ``schema`` and a ``label``.

    Every entry's keys are checked before any case runs; its values are read
    in its case, so a bad value is that case's error. The label defaults to
    ``case<i>`` (``pair<i>`` for ``pairs``); the case id is
    ``<id_prefix>/<label>``.
    """
    noun = key[:-1]
    labels = [_read(entry, f"{key}[{i}]", {"label": f"{noun}{i}", **dict.fromkeys(schema, object)})
              ["label"] for i, entry in enumerate(entries)]
    cases = []
    for i, (entry, label) in enumerate(zip(entries, labels)):
        path = f"{key}[{i}]"
        inputs = {"pair": label} if noun == "pair" else {"label": label}
        cases.append(_guarded(f"{id_prefix}/{label}", inputs,
                              lambda: run(_read(entry, path, {"label": object, **schema}), path)))
    return cases


def _bergman_monomial_power(n: int, p: float, alpha: float) -> float:
    """||z^n||^p on A^p_alpha: (alpha+1) B(x+1, alpha+1) with x = n p / 2. With
    m = min(floor(x), 1024) and f = x - m it is prod_{j=1..m} (f+j)/(f+j+alpha+1)
    times its value at f, which is 1 for f = 0: then the product is the one
    spaces._coefficient_weights takes. The product runs in integers, exact
    for the floats f and alpha + 1, and is rounded once (lgamma alone is off
    by ~2e-13 near degree 200, and a float product by ~1e-15)."""
    x = n * p / 2.0
    m = min(math.floor(x), 1024)
    f = x - m
    (pf, qf), (pa, qa) = f.as_integer_ratio(), (alpha + 1.0).as_integer_ratio()
    num = den = 1
    for j in range(1, m + 1):
        t = (pf + j * qf) * qa  # (f + j) qf qa
        num, den = num * t, den * (t + pa * qf)
    head = math.exp(math.lgamma(f + 1.0) + math.lgamma(alpha + 2.0) - math.lgamma(f + alpha + 2.0))
    return head * (num / den)


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------

def run_norm_table(cfg: dict) -> list:
    c = _read(cfg, "config", {"suite": object, "tolerances": {}, "max_degree": 8,
                              "spaces": Required([]), "saks": dict})
    tols = _read(c["tolerances"], "config.tolerances",
                 {"hardy": 1e-8, "dirichlet": 1e-6, "bergman": 1e-6})
    _in_range(tols, "config.tolerances", positive=tols)
    _in_range(c, "config", nonnegative=("max_degree",))
    cases = []
    for i, scfg in enumerate(c["spaces"]):
        space = build_space(scfg, f"spaces[{i}]")
        for n in range(c["max_degree"] + 1):
            inputs = {"space": space.label, "n": n}

            def run(space=space, n=n, inputs=inputs):
                val = spaces.norm(space, holo.monomial(n))
                if space.kind == "hardy":
                    expected, err, tol = 1.0, abs(val - 1.0), tols["hardy"]
                elif space.kind == "dirichlet":
                    # ||e_n||^2 = n for n >= 1; the constant keeps norm 1
                    expected = math.sqrt(n) if n else 1.0
                    err = abs(val * val - n) if n else abs(val - 1.0)
                    tol = tols["dirichlet"]
                elif space.kind == "bergman":
                    expected_p = _bergman_monomial_power(n, space.p, space.alpha)
                    expected = expected_p ** (1.0 / space.p)
                    err, tol = abs(val ** space.p - expected_p), tols["bergman"]
                else:
                    expected, err, tol = None, 0.0, float("inf")
                numbers = {"n": n, "norm": val, "error": err}
                if expected is not None:
                    numbers["expected"] = expected
                return inputs, numbers, err < tol, []

            cases.append(_guarded(f"norm/{space.label}/e_{n}", inputs, run))

    if c["saks"]:
        saks = _read(c["saks"], "saks", {"radii": [0.5, 0.9, 0.99, 0.999, 0.9999],
                                         "gap_tol": 1e-3, "spaces": Required([])})
        _in_range(saks, "saks", positive=("gap_tol",))
        radii = saks["radii"]
        for i, scfg in enumerate(saks["spaces"]):
            space = build_space(scfg, f"saks.spaces[{i}]")
            corpus = spaces.default_corpus(real=space.is_real)
            for f in corpus:

                def run(space=space, f=f):
                    numbers, ok = spaces.saks_sup_check(space, f, radii, tol=saks["gap_tol"])
                    return {"space": space.label, "f": f.name, "radii": radii}, numbers, ok, []

                cases.append(_guarded(f"saks/{space.label}/{f.name}",
                                      {"space": space.label, "f": f.name}, run))
    return cases


def run_semigroup_check(cfg: dict) -> list:
    c = _read(cfg, "config", {"suite": object, "sweep": {}, "pairs": Required([])})
    ts, rmax, grid_n = _sweep(c["sweep"], [0.0, 0.1, 0.5, 1.0], 0.95, 12)

    def run(v, path):
        _in_range(v, path, positive=("tol",))
        sg = _build_semigroup(v, path)
        grid = _grid_for(sg.phi.domain, rmax, grid_n, "sweep.grid_rmax")
        r_flow, r_coc, r_sg = semigroup.semigroup_residual(sg, ts, grid)
        numbers = {
            "semiflow_residual": r_flow,
            "cocycle_residual": r_coc,
            "semigroup_residual": r_sg,
            "tol": v["tol"],
        }
        return {"pair": v["label"]}, numbers, all(r < v["tol"] for r in (r_flow, r_coc, r_sg)), []

    schema = {"tol": 1e-10, "space": {"kind": "hardy"}, "flow": Required(dict),
              "cocycle": Required(dict)}
    return _run_cases(c["pairs"], "pairs", schema, "laws", run)


def run_cocycle_check(cfg: dict) -> list:
    c = _read(cfg, "config", {"suite": object, "tolerances": {}, "sweep": {},
                              "flow": Required(dict), "cocycles": Required([])})
    tols = _read(c["tolerances"], "config.tolerances", {"law": 1e-7, "mdot0": 1e-5})
    _in_range(tols, "config.tolerances", positive=tols)
    ts, rmax, grid_n = _sweep(c["sweep"], [0.0, 0.1, 0.5, 1.0], 0.95, 12)
    phi = build_flow(c["flow"], "flow")
    grid = _grid_for(phi.domain, rmax, grid_n, "sweep.grid_rmax")
    cases = []
    for i, ccfg in enumerate(c["cocycles"]):
        path = f"cocycles[{i}]"
        _variant(ccfg, path, "type", _COCYCLE_KEYS)
        cid = f"cocycle/{ccfg.get('type', '?')}{i}"

        def run(ccfg=ccfg, path=path):
            m = build_cocycle(ccfg, phi, path)
            res = cocycles.cocycle_law_residual(m, phi, ts, grid)
            numbers = {"law_residual": res}
            ok = res < tols["law"]
            if m.g is not None:
                zs = grid[:: max(1, len(grid) // 6)]
                worst = float(np.max(np.abs(cocycles.mdot0(m, zs) - m.g(zs))))
                numbers["mdot0_roundtrip"] = worst
                ok = ok and worst < tols["mdot0"]
            return {"cocycle": m.name, "flow": phi.name}, numbers, ok, []

        cases.append(_guarded(cid, {"flow": phi.name}, run))
    return cases


def run_bound_table(cfg: dict) -> list:
    c = _read(cfg, "config", {"suite": object, "ts": [0.25, LN2, 1.0], "slack": 1e-3,
                              "max_test_degree": 8, "cases": Required([])})
    _in_range(c, "config", nonnegative=("slack", "max_test_degree"))
    ts, slack = c["ts"], c["slack"]

    def run(v, path):
        sg = _build_semigroup(v, path)
        space, phi, m = sg.space, sg.phi, sg.m
        testset = semigroup.default_test_functions(space, max_degree=c["max_test_degree"])
        ref_norms = [spaces.norm(space, f) for f in testset]
        rows, ok = [], True
        for t in ts:
            row = semigroup.theoretical_bound(sg, t)
            lower = row["empirical_lower"] = semigroup.operator_norm_lower_bound(sg, t, testset,
                                                                                ref_norms)
            rows.append(row)
            ok = ok and lower <= row["theoretical"] * (1.0 + slack)
        worst_ratio = max(r["empirical_lower"] / r["theoretical"] for r in rows)
        inputs = {"space": space.label, "flow": phi.name, "cocycle": m.name}
        return inputs, {"worst_ratio": worst_ratio, "slack": slack}, ok, rows

    return _run_cases(c["cases"], "cases", _SEMIGROUP, "bound", run)


def run_generator_check(cfg: dict) -> list:
    c = _read(cfg, "config", {"suite": object, "tolerances": {},
                              "steps": list(flows.DEFAULT_FD_STEPS), "radius": 0.9,
                              "cases": Required([])})
    tols = _read(c["tolerances"], "config.tolerances", {"residual": 1e-4, "order_min": 0.9})
    _in_range(tols, "config.tolerances", positive=tols)
    _in_range(c, "config", positive=("radius",))
    steps, radius = tuple(c["steps"]), c["radius"]

    def run(v, path):
        sg = _build_semigroup(v, path)
        space, phi, m = sg.space, sg.phi, sg.m
        f = build_function(v["f"], phi.domain, f"{path}.f")
        grid = _grid_for(phi.domain, radius, 16, "config.radius")
        numbers, rows = semigroup.generator_residual(sg, f, steps, grid)
        # an order of inf (an exact quotient) passes any finite order_min
        ok = numbers["residual"] < tols["residual"] and numbers["order"] >= tols["order_min"]
        inputs = {"space": space.label, "flow": phi.name, "cocycle": m.name, "f": f.name}
        return inputs, numbers, ok, rows

    return _run_cases(c["cases"], "cases", {**_SEMIGROUP, "f": Required(object)}, "generator",
                      run)


def run_reconstruct(cfg: dict) -> list:
    c = _read(cfg, "config", {"suite": object, "tolerances": {}, "sweep": {},
                              "cases": Required([])})
    tols = _read(c["tolerances"], "config.tolerances", {"deviation": 1e-6, "generator_fd": 1e-5})
    _in_range(tols, "config.tolerances", positive=tols)
    ts, rmax, grid_n = _sweep(c["sweep"], [0.25, 0.5, 0.75, 1.0], 0.9, 6)

    def run(v, path):
        ref = build_flow(v["reference"], f"{path}.reference")
        phi_ode = build_flow({"generator": v["generator"]}, path, ref.domain)
        grid = _grid_for(ref.domain, rmax, grid_n, "sweep.grid_rmax")
        # one flow call per flow for every sweep time; a NaN is kept
        dev = np.max(np.abs(phi_ode.at_times(ts, grid) - ref.at_times(ts, grid)))
        zs = grid[:: max(1, len(grid) // 5)]
        fd_err = float(np.max(np.abs(flows.generator_fd(phi_ode, zs) - phi_ode.generator(zs))))
        numbers = {"max_deviation": float(dev), "generator_fd_error": fd_err}
        ok = dev < tols["deviation"] and fd_err < tols["generator_fd"]
        return {"generator": phi_ode.name, "reference": ref.name}, numbers, ok, []

    schema = {"generator": Required(object), "reference": Required(dict)}
    return _run_cases(c["cases"], "cases", schema, "reconstruct", run)


def run_continuity_probe(cfg: dict) -> list:
    c = _read(cfg, "config", {"suite": object, "cases": Required([])})

    def run(v, path):
        sg = _build_semigroup(v, path)
        space, phi, m = sg.space, sg.phi, sg.m
        f = build_function(v["f"], phi.domain, f"{path}.f")
        tols = _read(v["tolerances"], f"{path}.tolerances", {"co": 1e-3, "norm": 1e-3})
        _in_range(tols, f"{path}.tolerances", positive=tols)
        _in_range(v, path, positive=("norm_cap",))
        expect = _read(v["expect"], f"{path}.expect", {"gamma": bool, "norm": bool})
        want = {k: w for k, w in expect.items() if w is not None}
        if not want:
            raise ConfigError(f"{path}.expect", "declares no verdict: the case would pass "
                              "vacuously")
        numbers, rows = semigroup.continuity_probe(sg, f, v["ts"], v["radii"], tol_co=tols["co"],
                                                   tol_norm=tols["norm"], norm_cap=v["norm_cap"])
        ok = all(numbers[f"{k}_verdict"] == w for k, w in want.items())
        inputs = {"space": space.label, "flow": phi.name, "cocycle": m.name, "f": f.name}
        return inputs, numbers, ok, rows

    schema = {**_SEMIGROUP, "f": Required(object), "ts": [0.1, 0.01, 0.001],
              "radii": [0.5, 0.9], "tolerances": {}, "norm_cap": float, "expect": {}}
    return _run_cases(c["cases"], "cases", schema, "continuity", run)


def run_admissibility(cfg: dict) -> list:
    c = _read(cfg, "config", {"suite": object, "tol": 1e-8, "flow": Required(dict),
                              "cases": Required([])})
    _in_range(c, "config", positive=("tol",))
    phi = build_flow(c["flow"], "flow")
    # the Newton seeds reach x = 10 on the real line
    with _config_errors("flow"):
        search = flows.fixed_points(phi, _grid_for(phi.domain, 10.0 if phi.domain.kind == "real"
                                                   else 0.9, 12, "flow"))

    def run(v, path):
        g = _expr(v["g"], phi.domain, f"{path}.g")
        if search.trivial:
            raise DegenerateFixedPoint("identity fixes every point: g(b)/G'(b) is undefined")
        numbers, rows = cocycles.coboundary_admissibility(g, phi.generator, list(search.points),
                                                          tol=c["tol"])
        want = v["expect_admissible"]
        ok = numbers["admissible"] if want is None else numbers["admissible"] == want
        inputs = {"flow": phi.name, "g": g.name, "fixed_points": list(search.points)}
        return inputs, numbers, ok, rows

    schema = {"g": Required(object), "expect_admissible": bool}
    return _run_cases(c["cases"], "cases", schema, "admissibility", run)


SUITES = {
    "norm-table": run_norm_table,
    "semigroup-check": run_semigroup_check,
    "cocycle-check": run_cocycle_check,
    "bound-table": run_bound_table,
    "generator-check": run_generator_check,
    "reconstruct": run_reconstruct,
    "continuity-probe": run_continuity_probe,
    "admissibility": run_admissibility,
}
