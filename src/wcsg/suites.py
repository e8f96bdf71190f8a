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
from .flows import (CATALOG_PARAMS, OdeCfg, Semiflow, make_catalog_semiflow,
                    semiflow_from_generator)
from .holo import REAL_LINE, UNIT_DISC, HoloFn, QuadPolicy
from .reporting import Case
from .semigroup import WcSemigroup
from .spaces import SpaceSpec

LN2 = 0.6931471805599453


# ---------------------------------------------------------------------------
# config validation and object building
# ---------------------------------------------------------------------------

def _check_keys(cfg: dict, allowed, path: str, why: str = "unknown key"):
    if not isinstance(cfg, dict):
        raise ConfigError(path, f"expected an object, got {type(cfg).__name__}")
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", why)


def _check_variant_keys(cfg: dict, tag: str, own: dict, path: str, common=()):
    """Check an object whose ``tag`` key names its variant (a space kind, a
    cocycle type): it takes ``common`` keys and its variant's own keys. An
    object of unknown variant may hold any variant's keys; its builder
    rejects the variant."""
    _check_keys(cfg, {tag, *common}.union(*own.values()), path)
    kind = cfg.get(tag)
    if isinstance(kind, str) and kind in own:
        _check_keys(cfg, {tag, *common, *own[kind]}, path, f"not a key of {tag} {kind!r}")


def _get(cfg: dict, key: str, path: str, default=None, required: bool = False):
    """Read a config key; applied defaults are written back into the config
    so the report's config echo is fully self-describing."""
    if key not in cfg:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required key")
        if default is not None and isinstance(cfg, dict):
            stored = default.copy() if isinstance(default, (dict, list)) else default
            cfg[key] = stored
            return stored
        return default
    return cfg[key]


def _number(v, path: str, cast=float):
    """Coerce one config scalar; anything but a finite JSON number is a
    ConfigError. A boolean or a string is not a number, and an int key takes
    only integral values."""
    try:
        if (isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)
                or (cast is int and not float(v).is_integer())):
            raise ValueError
        return cast(v)
    except (ValueError, OverflowError):
        noun = "an integer" if cast is int else "a number"
        raise ConfigError(path, f"expected {noun}, got {v!r}") from None


def _flag(v, path: str) -> bool:
    """One config boolean; anything but JSON true or false is a ConfigError."""
    if not isinstance(v, bool):
        raise ConfigError(path, f"expected true or false, got {v!r}")
    return v


def _num(cfg: dict, key: str, path: str, default=None, cast=float, required: bool = False):
    """A scalar config key, coerced by :func:`_number`."""
    return _number(_get(cfg, key, path, default, required), f"{path}.{key}", cast)


def _list(cfg: dict, key: str, path: str, default=None) -> list:
    """A list-valued config key, required unless a default is given."""
    vals = _get(cfg, key, path, default, required=default is None)
    if not isinstance(vals, list):
        raise ConfigError(f"{path}.{key}", f"expected a list, got {type(vals).__name__}")
    return vals


def _nums(cfg: dict, key: str, path: str, default, cast=float) -> list:
    """A nonempty list-of-scalars config key (every such list is a sampling
    ladder), each entry coerced by :func:`_number`."""
    vals = _list(cfg, key, path, default)
    if not vals:
        raise ConfigError(f"{path}.{key}", "expected a nonempty list of numbers")
    return [_number(v, f"{path}.{key}[{i}]", cast) for i, v in enumerate(vals)]


def _as_complex(v, path: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(_number(v, path))
    if isinstance(v, dict) and set(v) <= {"re", "im"}:
        return complex(_number(v.get("re", 0.0), f"{path}.re"),
                       _number(v.get("im", 0.0), f"{path}.im"))
    raise ConfigError(path, "expected a number or {re, im}")


def _named_numbers(cfg: dict, path: str, defaults: dict) -> dict:
    """A section of named numbers: only the keys of ``defaults``, each coerced
    to its default's type. The echo shows every value used, defaults too."""
    _check_keys(cfg, set(defaults), path)
    values = {k: _num(cfg, k, path, d, type(d)) for k, d in defaults.items()}
    cfg.update(values)
    return values


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


def _settings(cls, cfg: dict, path: str):
    """A settings dataclass (QuadPolicy, OdeCfg) from its config section: one
    key per field, each defaulting to the field's default."""
    values = _named_numbers(cfg, path, {f.name: f.default for f in dataclasses.fields(cls)})
    with _config_errors(path):
        return cls(**values)


def _expr(spec, domain, path: str) -> HoloFn:
    """Compile a config expression string; anything else is a ConfigError."""
    if not isinstance(spec, str):
        raise ConfigError(path, f"expected an expression string, got {spec!r}")
    try:
        return exprs.to_holofn(spec, domain)
    except ValueError as e:
        raise ConfigError(path, f"bad expression: {e}")


def _build_weight(spec, domain, path: str) -> HoloFn:
    if spec == "one":
        return holo.unit_weight(domain)
    if spec == "exp-decay":
        return holo.exp_abs_decay_weight()
    return _expr(spec, domain, path)


# The keys of each space kind besides ``kind`` and ``policy``.
_SPACE_KEYS = {"hardy": {"p"}, "bergman": {"alpha", "p"}, "dirichlet": set(),
               "bloch": {"alpha"}, "sup-holo": {"weight"}, "sup-cont": {"weight", "halfwidth"}}


def build_space(cfg: dict, path: str = "space") -> SpaceSpec:
    _check_variant_keys(cfg, "kind", _SPACE_KEYS, path, {"policy"})
    kind = _get(cfg, "kind", path, required=True)
    policy = _get(cfg, "policy", path)
    policy = (holo.DEFAULT_POLICY if policy is None
              else _settings(QuadPolicy, policy, f"{path}.policy"))
    with _config_errors(path):
        if kind == "hardy":
            return SpaceSpec.hardy(_num(cfg, "p", path, 2.0), policy)
        if kind == "bergman":
            return SpaceSpec.bergman(
                _num(cfg, "alpha", path, required=True),
                _num(cfg, "p", path, 2.0),
                policy,
            )
        if kind == "dirichlet":
            return SpaceSpec.dirichlet(policy)
        if kind == "bloch":
            return SpaceSpec.bloch(_num(cfg, "alpha", path, 1.0), policy)
        if kind == "sup-holo":
            w = _build_weight(_get(cfg, "weight", path, "one"), UNIT_DISC, f"{path}.weight")
            return SpaceSpec.sup_holo(w, policy)
        if kind == "sup-cont":
            w = _build_weight(
                _get(cfg, "weight", path, "exp-decay"), REAL_LINE, f"{path}.weight"
            )
            return SpaceSpec.sup_cont(w, _num(cfg, "halfwidth", path, 40.0), policy)
    raise ConfigError(f"{path}.kind", f"unknown space kind {kind!r}")


# How a catalog parameter of each declared type is read.
_PARAM_READERS = {complex: _as_complex, float: _number, str: lambda v, path: v}


def build_flow(cfg: dict, path: str = "flow") -> Semiflow:
    _check_keys(cfg, {"name", "params", "generator", "ode"}, path)
    name = _get(cfg, "name", path)
    gen = _get(cfg, "generator", path)
    if (name is None) == (gen is None):
        raise ConfigError(path, "give exactly one of 'name' (catalog) or 'generator' (ODE)")
    if name is not None:
        _check_keys(cfg, {"name", "params"}, path, "not a key of a catalog flow")
        own = CATALOG_PARAMS.get(name) if isinstance(name, str) else None
        if own is None:
            raise ConfigError(path, f"no catalog semiflow named {name!r}")
        params = _section(cfg, "params", path)
        _check_keys(params, own, f"{path}.params", f"not a parameter of {name}")
        built = {k: _PARAM_READERS[own[k]](v, f"{path}.params.{k}") for k, v in params.items()}
        with _config_errors(path):
            return make_catalog_semiflow(name, built)
    _check_keys(cfg, {"generator", "ode"}, path, "not a key of an ODE flow")
    ode = _settings(OdeCfg, _section(cfg, "ode", path), f"{path}.ode")
    with _config_errors(path):
        return semiflow_from_generator(_expr(gen, None, f"{path}.generator"), ode)


_TRIVIAL = {"type": "trivial"}

# The keys of each cocycle type besides ``type``.
_COCYCLE_KEYS = {"trivial": set(), "integral": {"g"}, "derivative": set(),
                 "coboundary": {"omega", "zeros"}}


def build_cocycle(cfg: dict, phi: Semiflow, path: str = "cocycle") -> cocycles.Semicocycle:
    _check_variant_keys(cfg, "type", _COCYCLE_KEYS, path)
    kind = _get(cfg, "type", path, required=True)
    with _config_errors(path):
        if kind == "trivial":
            return cocycles.trivial_cocycle()
        if kind == "integral":
            g = _expr(_get(cfg, "g", path, required=True), phi.domain, f"{path}.g")
            return cocycles.cocycle_from_g(g, phi)
        if kind == "derivative":
            return cocycles.derivative_cocycle(phi)
        if kind == "coboundary":
            omega = _expr(_get(cfg, "omega", path, required=True), phi.domain, f"{path}.omega")
            orders = {}
            for i, item in enumerate(_list(cfg, "zeros", path, [])):
                zpath = f"{path}.zeros[{i}]"
                _check_keys(item, {"re", "im", "order"}, zpath)
                b = _as_complex({k: v for k, v in item.items() if k != "order"}, zpath)
                orders[b] = _num(item, "order", zpath, cast=int, required=True)
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


def _section(cfg: dict, key: str, path: str) -> dict:
    """Fetch (or materialize) a nested config section."""
    val = _get(cfg, key, path, {})
    if val is None:
        val = {}
        cfg[key] = val
    return val


def _tolerances(cfg: dict, path: str, defaults: dict) -> dict:
    return _named_numbers(_section(cfg, "tolerances", path), f"{path}.tolerances", defaults)


def _sweep(cfg: dict, ts, rmax: float, n: int):
    """The sweep section: sample times, grid radius and grid density.

    The laws hold for times t >= 0 only, so negative times are rejected. A
    grid with no angles or no radius collapses to the origin, where every
    law holds trivially, so both are rejected too."""
    sweep = _section(cfg, "sweep", "config")
    _check_keys(sweep, {"ts", "grid_rmax", "grid_n"}, "sweep")
    ts = _nums(sweep, "ts", "sweep", ts)
    rmax = _num(sweep, "grid_rmax", "sweep", rmax)
    n = _num(sweep, "grid_n", "sweep", n, int)
    for i, t in enumerate(ts):
        if t < 0:
            raise ConfigError(f"sweep.ts[{i}]", f"must be >= 0, got {t!r}")
    if not rmax > 0:
        raise ConfigError("sweep.grid_rmax", f"must be positive, got {rmax!r}")
    if n < 1:
        raise ConfigError("sweep.grid_n", f"must be >= 1, got {n!r}")
    return ts, rmax, n


def _build_semigroup(cfg: dict, path: str, space=None, cocycle=_TRIVIAL) -> WcSemigroup:
    """Space, flow and cocycle of one case. ``space`` and ``cocycle`` are the
    defaults of their keys; a key whose default is None is required."""
    space = build_space(_get(cfg, "space", path, space, space is None), f"{path}.space")
    phi = build_flow(_get(cfg, "flow", path, required=True), f"{path}.flow")
    m = build_cocycle(_get(cfg, "cocycle", path, cocycle, cocycle is None), phi, f"{path}.cocycle")
    return WcSemigroup(phi, m, space)


def _grid_for(domain, rmax: float = 0.95, n: int = 12):
    """The law sample grid; a disc grid must lie inside the open disc."""
    if domain.kind == "real":
        return flows.real_sample_grid(10.0, 2 * n + 1)
    if rmax >= 1:
        raise ConfigError("sweep.grid_rmax",
                          f"a disc grid must lie inside the unit disc, got {rmax!r}")
    return flows.disc_sample_grid(rmax, 4, n)


def _guarded(case_id: str, inputs: dict, run) -> Case:
    """The one place a Case is built. ``run()`` gives ``(inputs, numbers, ok,
    rows)``; a case without rows writes its numbers as its CSV row. If it
    raises a WcsgError, the case is an error case with the given ``inputs``."""
    try:
        inputs, numbers, ok, rows = run()
    except WcsgError as e:
        return Case(id=case_id, inputs=inputs, numbers={}, verdict="error", error=str(e))
    return Case(id=case_id, inputs=inputs, numbers=numbers, verdict=bool(ok), rows=rows)


def _run_cases(cfg: dict, key: str, allowed, id_prefix: str, run) -> list:
    """The case loop: ``run(entry, path)`` for each entry of ``cfg[key]``.

    Each entry is checked against ``allowed``; its label defaults to
    ``case<i>`` (``pair<i>`` for ``pairs``) and the case id is
    ``<id_prefix>/<label>``. A case that fails is recorded as an error case.
    """
    noun = key[:-1]
    cases = []
    for i, entry in enumerate(_list(cfg, key, "config")):
        path = f"{key}[{i}]"
        _check_keys(entry, allowed, path)
        label = _get(entry, "label", path, f"{noun}{i}")
        inputs = {"pair": label} if noun == "pair" else {"label": label}
        cases.append(_guarded(f"{id_prefix}/{label}", inputs, lambda: run(entry, path)))
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
    _check_keys(cfg, {"suite", "spaces", "max_degree", "saks", "tolerances"}, "config")
    tols = _tolerances(cfg, "config", {"hardy": 1e-8, "dirichlet": 1e-6, "bergman": 1e-6})
    max_deg = _num(cfg, "max_degree", "config", 8, int)
    if max_deg < 0:
        raise ConfigError("config.max_degree", f"must be >= 0, got {max_deg!r}")
    cases = []
    for i, scfg in enumerate(_list(cfg, "spaces", "config")):
        space = build_space(scfg, f"spaces[{i}]")
        for n in range(max_deg + 1):
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

    saks_cfg = _get(cfg, "saks", "config")
    if saks_cfg:
        _check_keys(saks_cfg, {"spaces", "radii", "gap_tol"}, "saks")
        radii = _nums(saks_cfg, "radii", "saks", [0.5, 0.9, 0.99, 0.999, 0.9999])
        gap_tol = _num(saks_cfg, "gap_tol", "saks", 1e-3)
        for i, scfg in enumerate(_list(saks_cfg, "spaces", "saks")):
            space = build_space(scfg, f"saks.spaces[{i}]")
            corpus = spaces.default_corpus(real=space.is_real)
            for f in corpus:

                def run(space=space, f=f):
                    rep = spaces.saks_sup_check(space, f, radii, tol=gap_tol)
                    numbers = {
                        "norm": rep.norm,
                        "max_seminorm": rep.max_seminorm,
                        "gap": rep.gap,
                    }
                    inputs = {"space": space.label, "f": f.name, "radii": radii}
                    return inputs, numbers, rep.verdict, []

                cases.append(_guarded(f"saks/{space.label}/{f.name}",
                                      {"space": space.label, "f": f.name}, run))
    return cases


def run_semigroup_check(cfg: dict) -> list:
    _check_keys(cfg, {"suite", "pairs", "sweep"}, "config")
    ts, rmax, grid_n = _sweep(cfg, [0.0, 0.1, 0.5, 1.0], 0.95, 12)

    def run(pcfg, path):
        tol = _num(pcfg, "tol", path, 1e-10)
        sg = _build_semigroup(pcfg, path, space={"kind": "hardy", "p": 2.0}, cocycle=None)
        grid = _grid_for(sg.phi.domain, rmax, grid_n)
        r_flow, r_coc, r_sg = semigroup.semigroup_residual(sg, ts, grid)
        numbers = {
            "semiflow_residual": r_flow,
            "cocycle_residual": r_coc,
            "semigroup_residual": r_sg,
            "tol": tol,
        }
        return {"pair": pcfg["label"]}, numbers, all(r < tol for r in (r_flow, r_coc, r_sg)), []

    return _run_cases(cfg, "pairs", {"label", "space", "flow", "cocycle", "tol"}, "laws", run)


def run_cocycle_check(cfg: dict) -> list:
    _check_keys(cfg, {"suite", "flow", "cocycles", "sweep", "tolerances"}, "config")
    tols = _tolerances(cfg, "config", {"law": 1e-7, "mdot0": 1e-5})
    ts, rmax, grid_n = _sweep(cfg, [0.0, 0.1, 0.5, 1.0], 0.95, 12)
    phi = build_flow(_get(cfg, "flow", "config", required=True), "flow")
    grid = _grid_for(phi.domain, rmax, grid_n)
    cases = []
    for i, ccfg in enumerate(_list(cfg, "cocycles", "config")):
        path = f"cocycles[{i}]"
        _check_variant_keys(ccfg, "type", _COCYCLE_KEYS, path)
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
    _check_keys(cfg, {"suite", "cases", "ts", "slack", "max_test_degree"}, "config")
    ts = _nums(cfg, "ts", "config", [0.25, LN2, 1.0])
    slack = _num(cfg, "slack", "config", 1e-3)
    max_deg = _num(cfg, "max_test_degree", "config", 8, int)

    def run(bcfg, path):
        sg = _build_semigroup(bcfg, path)
        space, phi, m = sg.space, sg.phi, sg.m
        testset = semigroup.default_test_functions(space, max_degree=max_deg)
        ref_norms = [spaces.norm(space, f) for f in testset]
        rows, ok = [], True
        for t in ts:
            res = semigroup.theoretical_bound(sg, t)
            lower = semigroup.operator_norm_lower_bound(sg, t, testset, ref_norms)
            rows.append({"t": t, "theoretical": res.theoretical, "empirical_lower": lower,
                         "formula": res.formula_tag})
            ok = ok and lower <= res.theoretical * (1.0 + slack)
        worst_ratio = max(r["empirical_lower"] / r["theoretical"] for r in rows)
        inputs = {"space": space.label, "flow": phi.name, "cocycle": m.name}
        return inputs, {"worst_ratio": worst_ratio, "slack": slack}, ok, rows

    return _run_cases(cfg, "cases", {"label", "space", "flow", "cocycle"}, "bound", run)


def run_generator_check(cfg: dict) -> list:
    _check_keys(cfg, {"suite", "cases", "steps", "radius", "tolerances"}, "config")
    tols = _tolerances(cfg, "config", {"residual": 1e-4, "order_min": 0.9})
    steps = tuple(_nums(cfg, "steps", "config", list(flows.DEFAULT_FD_STEPS)))
    radius = _num(cfg, "radius", "config", 0.9)
    if not radius > 0:
        raise ConfigError("config.radius", f"must be positive, got {radius!r}")

    def run(gcfg, path):
        sg = _build_semigroup(gcfg, path)
        space, phi, m = sg.space, sg.phi, sg.m
        f = build_function(_get(gcfg, "f", path, required=True), phi.domain, f"{path}.f")
        rep = semigroup.generator_residual(sg, f, steps=steps, radius=radius)
        numbers = {"residual": rep.extrapolated, "order": rep.order}
        ok = rep.extrapolated < tols["residual"] and (
            rep.order >= tols["order_min"] or rep.order == float("inf")
        )
        rows = [{"h": h, "sup_residual": r} for h, r in rep.per_h]
        inputs = {"space": space.label, "flow": phi.name, "cocycle": m.name, "f": f.name}
        return inputs, numbers, ok, rows

    return _run_cases(cfg, "cases", {"label", "space", "flow", "cocycle", "f"}, "generator", run)


def run_reconstruct(cfg: dict) -> list:
    _check_keys(cfg, {"suite", "cases", "sweep", "tolerances", "ode"}, "config")
    tols = _tolerances(cfg, "config", {"deviation": 1e-6, "generator_fd": 1e-5})
    ts, rmax, grid_n = _sweep(cfg, [0.25, 0.5, 0.75, 1.0], 0.9, 6)
    ode_cfg = _section(cfg, "ode", "config")

    def run(rcfg, path):
        phi_ode = build_flow(
            {"generator": _get(rcfg, "generator", path, required=True), "ode": ode_cfg},
            f"{path}",
        )
        ref = build_flow(_get(rcfg, "reference", path, required=True), f"{path}.reference")
        if phi_ode.domain.kind != ref.domain.kind:
            raise ConfigError(f"{path}.generator", f"a {phi_ode.domain.kind}-domain generator "
                              f"cannot rebuild the {ref.domain.kind}-domain flow {ref.name}")
        grid = _grid_for(ref.domain, rmax, grid_n)
        # one flow call per flow for every sweep time; a NaN is kept
        dev = np.max(np.abs(phi_ode.at_times(ts, grid) - ref.at_times(ts, grid)))
        zs = grid[:: max(1, len(grid) // 5)]
        fd_err = float(np.max(np.abs(flows.generator_fd(phi_ode, zs) - phi_ode.generator(zs))))
        numbers = {"max_deviation": float(dev), "generator_fd_error": fd_err}
        ok = dev < tols["deviation"] and fd_err < tols["generator_fd"]
        return {"generator": phi_ode.name, "reference": ref.name}, numbers, ok, []

    return _run_cases(cfg, "cases", {"label", "generator", "reference"}, "reconstruct", run)


def run_continuity_probe(cfg: dict) -> list:
    _check_keys(cfg, {"suite", "cases"}, "config")

    def run(pcfg, path):
        sg = _build_semigroup(pcfg, path)
        space, phi, m = sg.space, sg.phi, sg.m
        f = build_function(_get(pcfg, "f", path, required=True), phi.domain, f"{path}.f")
        ts = _nums(pcfg, "ts", path, [0.1, 0.01, 0.001])
        radii = _nums(pcfg, "radii", path, [0.5, 0.9])
        tols = _tolerances(pcfg, path, {"co": 1e-3, "norm": 1e-3})
        cap = _get(pcfg, "norm_cap", path)
        probe = semigroup.continuity_probe(
            sg,
            f,
            ts,
            radii,
            tol_co=tols["co"],
            tol_norm=tols["norm"],
            norm_cap=_number(cap, f"{path}.norm_cap") if cap is not None else None,
        )
        expect = _section(pcfg, "expect", path)
        _check_keys(expect, {"gamma", "norm"}, f"{path}.expect")
        want = {k: _flag(v, f"{path}.expect.{k}") for k, v in expect.items()}
        ok = all(getattr(probe, f"{k}_verdict") == v for k, v in want.items())
        rows = [
            {
                "t": rec.t,
                "norm_residual": rec.norm_residual,
                "norm_of_Cf": rec.norm_of_Cf,
                **{f"co_residual_r{r:g}": v for r, v in rec.co_residuals},
            }
            for rec in probe.records
        ]
        inputs = {"space": space.label, "flow": phi.name, "cocycle": m.name, "f": f.name}
        numbers = {"gamma_verdict": probe.gamma_verdict, "norm_verdict": probe.norm_verdict}
        return inputs, numbers, ok, rows

    allowed = {"label", "space", "flow", "cocycle", "f", "ts", "radii", "tolerances",
               "norm_cap", "expect"}
    return _run_cases(cfg, "cases", allowed, "continuity", run)


def run_admissibility(cfg: dict) -> list:
    _check_keys(cfg, {"suite", "flow", "cases", "tol"}, "config")
    tol = _num(cfg, "tol", "config", 1e-8)
    phi = build_flow(_get(cfg, "flow", "config", required=True), "flow")
    search = flows.fixed_points(phi, _grid_for(phi.domain, 0.9))

    def run(acfg, path):
        g = _expr(_get(acfg, "g", path, required=True), phi.domain, f"{path}.g")
        if search.trivial:
            raise DegenerateFixedPoint("identity fixes every point: g(b)/G'(b) is undefined")
        verdict = cocycles.coboundary_admissibility(g, phi.generator, list(search.points), tol=tol)
        ok = verdict.admissible
        if "expect_admissible" in acfg:
            ok = ok == _flag(acfg["expect_admissible"], f"{path}.expect_admissible")
        rows = [dataclasses.asdict(r) for r in verdict.records]
        inputs = {"flow": phi.name, "g": g.name, "fixed_points": list(search.points)}
        return inputs, {"admissible": verdict.admissible}, ok, rows

    return _run_cases(cfg, "cases", {"label", "g", "expect_admissible"}, "admissibility", run)


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
