"""Experiment suites: validated configs in, deterministic case lists out.

Each suite takes a plain-dict config (JSON-shaped), validates it strictly
(unknown keys are errors, not warnings), runs its diagnostics, and returns
reporting Cases. A failing case is recorded with its error and verdict
"error"; it never aborts the rest of the sweep.
"""

from __future__ import annotations

import math

import numpy as np

from . import cocycles, exprs, flows, holo, semigroup, spaces
from .errors import ConfigError, WcsgError
from .flows import OdeCfg, Semiflow, make_catalog_semiflow, semiflow_from_generator
from .holo import REAL_LINE, UNIT_DISC, HoloFn, QuadPolicy
from .reporting import Case
from .semigroup import WcSemigroup
from .spaces import SpaceSpec

LN2 = 0.6931471805599453


# ---------------------------------------------------------------------------
# config validation and object building
# ---------------------------------------------------------------------------

def _check_keys(cfg: dict, allowed, path: str):
    if not isinstance(cfg, dict):
        raise ConfigError(path, f"expected an object, got {type(cfg).__name__}")
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")


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
    """Coerce one config scalar; anything that is not a number is a ConfigError."""
    try:
        return cast(v)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(path, f"expected a number, got {v!r}") from None


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
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, dict) and set(v) <= {"re", "im"}:
        return complex(_number(v.get("re", 0.0), f"{path}.re"),
                       _number(v.get("im", 0.0), f"{path}.im"))
    raise ConfigError(path, "expected a number or {re, im}")


def build_policy(cfg: dict | None, path: str) -> QuadPolicy:
    if cfg is None:
        return holo.DEFAULT_POLICY
    _check_keys(cfg, {"n_theta", "n_radial", "r_cap", "tol"}, path)
    try:
        return QuadPolicy(
            n_theta=_num(cfg, "n_theta", path, 256, int),
            n_radial=_num(cfg, "n_radial", path, 128, int),
            r_cap=_num(cfg, "r_cap", path, 1.0 - 1e-6),
            tol=_num(cfg, "tol", path, 1e-8),
        )
    except ValueError as e:
        raise ConfigError(path, str(e))


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


def build_space(cfg: dict, path: str = "space") -> SpaceSpec:
    _check_keys(cfg, {"kind", "p", "alpha", "weight", "halfwidth", "policy"}, path)
    kind = _get(cfg, "kind", path, required=True)
    policy = build_policy(_get(cfg, "policy", path), f"{path}.policy")
    try:
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
    except ConfigError:
        raise
    except (ValueError, WcsgError) as e:
        raise ConfigError(path, str(e))
    raise ConfigError(f"{path}.kind", f"unknown space kind {kind!r}")


def build_flow(cfg: dict, path: str = "flow") -> Semiflow:
    _check_keys(cfg, {"name", "params", "generator", "ode", "reference"}, path)
    name = _get(cfg, "name", path)
    gen = _get(cfg, "generator", path)
    if (name is None) == (gen is None):
        raise ConfigError(path, "give exactly one of 'name' (catalog) or 'generator' (ODE)")
    if name is not None:
        params = _section(cfg, "params", path)
        if not isinstance(params, dict):
            raise ConfigError(f"{path}.params", "expected an object")
        built = {}
        for k, v in params.items():
            built[k] = _as_complex(v, f"{path}.params.{k}") if k == "c" else v
        try:
            return make_catalog_semiflow(name, built)
        except WcsgError as e:
            raise ConfigError(path, str(e))
    ode_cfg = _section(cfg, "ode", path)
    _check_keys(ode_cfg, {"h0", "tol_step", "exit_margin"}, f"{path}.ode")
    try:
        cfg_obj = OdeCfg(
            h0=_number(ode_cfg.get("h0", 1e-3), f"{path}.ode.h0"),
            tol_step=_number(ode_cfg.get("tol_step", 1e-10), f"{path}.ode.tol_step"),
            exit_margin=_number(ode_cfg.get("exit_margin", 1e-9), f"{path}.ode.exit_margin"),
        )
        return semiflow_from_generator(_expr(gen, None, f"{path}.generator"), cfg_obj)
    except ConfigError:
        raise
    except (ValueError, WcsgError) as e:
        raise ConfigError(path, str(e))


_COCYCLE_KEYS = {"type", "g", "omega", "zeros"}


def build_cocycle(cfg: dict, phi: Semiflow, path: str = "cocycle") -> cocycles.Semicocycle:
    _check_keys(cfg, _COCYCLE_KEYS, path)
    kind = _get(cfg, "type", path, required=True)
    try:
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
                _check_keys(item, {"re", "im", "order"}, f"{path}.zeros[{i}]")
                zpath = f"{path}.zeros[{i}]"
                b = complex(_number(item.get("re", 0.0), f"{zpath}.re"),
                            _number(item.get("im", 0.0), f"{zpath}.im"))
                orders[b] = _num(item, "order", zpath, cast=int, required=True)
            return cocycles.coboundary(omega, phi, orders)
    except ConfigError:
        raise
    except (ValueError, WcsgError) as e:
        raise ConfigError(path, str(e))
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
    section = _section(cfg, "tolerances", path)
    _check_keys(section, set(defaults), f"{path}.tolerances")
    out = dict(defaults)
    for k, v in section.items():
        out[k] = _number(v, f"{path}.tolerances.{k}")
    section.update(out)  # resolved tolerances appear in the config echo
    return out


def _sweep(cfg: dict, ts, rmax: float, n: int):
    """The sweep section: sample times, grid radius and grid density.

    A grid with no angles or no radius collapses to the origin, where every
    law holds trivially, so both are rejected."""
    sweep = _section(cfg, "sweep", "config")
    _check_keys(sweep, {"ts", "grid_rmax", "grid_n"}, "sweep")
    ts = _nums(sweep, "ts", "sweep", ts)
    rmax = _num(sweep, "grid_rmax", "sweep", rmax)
    n = _num(sweep, "grid_n", "sweep", n, int)
    if not rmax > 0:
        raise ConfigError("sweep.grid_rmax", f"must be positive, got {rmax!r}")
    if n < 1:
        raise ConfigError("sweep.grid_n", f"must be >= 1, got {n!r}")
    return ts, rmax, n


def _build_semigroup(cfg: dict, path: str) -> WcSemigroup:
    """Space, flow and cocycle (trivial by default) of one case."""
    space = build_space(_get(cfg, "space", path, required=True), f"{path}.space")
    phi = build_flow(_get(cfg, "flow", path, required=True), f"{path}.flow")
    m = build_cocycle(_get(cfg, "cocycle", path, {"type": "trivial"}), phi, f"{path}.cocycle")
    return WcSemigroup(phi, m, space)


def _grid_for(domain, rmax: float = 0.95, n: int = 12):
    if domain.kind == "real":
        return flows.real_sample_grid(10.0, 2 * n + 1)
    return flows.disc_sample_grid(rmax, 4, n)


def _guarded(case_id: str, inputs: dict, fn) -> Case:
    try:
        return fn()
    except WcsgError as e:
        return Case(id=case_id, inputs=inputs, numbers={}, verdict="error", error=str(e))


def _run_cases(cfg: dict, key: str, allowed, id_prefix: str, run) -> list:
    """The case loop: ``run(entry, path, cid)`` for each entry of ``cfg[key]``.

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
        cid = f"{id_prefix}/{label}"
        inputs = {"pair": label} if noun == "pair" else {"label": label}
        cases.append(_guarded(cid, inputs, lambda: run(entry, path, cid)))
    return cases


def _beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------

def run_norm_table(cfg: dict) -> list:
    _check_keys(cfg, {"suite", "spaces", "max_degree", "saks", "tolerances"}, "config")
    tols = _tolerances(cfg, "config", {"hardy": 1e-8, "dirichlet": 1e-6, "bergman": 1e-6})
    max_deg = _num(cfg, "max_degree", "config", 8, int)
    cases = []
    for i, scfg in enumerate(_list(cfg, "spaces", "config")):
        space = build_space(scfg, f"spaces[{i}]")
        for n in range(max_deg + 1):
            cid = f"norm/{space.label}/e_{n}"

            def run(space=space, n=n, cid=cid):
                val = spaces.norm(space, holo.monomial(n))
                if space.kind == "hardy":
                    expected, err, tol = 1.0, abs(val - 1.0), tols["hardy"]
                elif space.kind == "dirichlet":
                    # ||e_n||^2 = n for n >= 1; the constant keeps norm 1
                    expected = math.sqrt(n) if n else 1.0
                    err = abs(val * val - n) if n else abs(val - 1.0)
                    tol = tols["dirichlet"]
                elif space.kind == "bergman":
                    expected_p = (space.alpha + 1.0) * _beta(
                        n * space.p / 2.0 + 1.0, space.alpha + 1.0
                    )
                    expected = expected_p ** (1.0 / space.p)
                    err, tol = abs(val ** space.p - expected_p), tols["bergman"]
                else:
                    expected, err, tol = None, 0.0, float("inf")
                numbers = {"n": n, "norm": val, "error": err}
                if expected is not None:
                    numbers["expected"] = expected
                return Case(
                    id=cid,
                    inputs={"space": space.label, "n": n},
                    numbers=numbers,
                    verdict=bool(err < tol),
                    rows=[numbers],
                )

            cases.append(_guarded(cid, {"space": space.label, "n": n}, run))

    saks_cfg = _get(cfg, "saks", "config")
    if saks_cfg:
        _check_keys(saks_cfg, {"spaces", "radii", "gap_tol"}, "saks")
        radii = _nums(saks_cfg, "radii", "saks", [0.5, 0.9, 0.99, 0.999, 0.9999])
        gap_tol = _num(saks_cfg, "gap_tol", "saks", 1e-3)
        for i, scfg in enumerate(_list(saks_cfg, "spaces", "saks")):
            space = build_space(scfg, f"saks.spaces[{i}]")
            corpus = spaces.default_corpus(real=space.is_real)
            for f in corpus:
                cid = f"saks/{space.label}/{f.name}"

                def run(space=space, f=f, cid=cid):
                    rep = spaces.saks_sup_check(space, f, radii, tol=gap_tol)
                    numbers = {
                        "norm": rep.norm,
                        "max_seminorm": rep.max_seminorm,
                        "gap": rep.gap,
                    }
                    return Case(
                        id=cid,
                        inputs={"space": space.label, "f": f.name, "radii": radii},
                        numbers=numbers,
                        verdict=rep.verdict,
                        rows=[numbers],
                    )

                cases.append(_guarded(cid, {"space": space.label, "f": f.name}, run))
    return cases


def run_semigroup_check(cfg: dict) -> list:
    _check_keys(cfg, {"suite", "pairs", "sweep"}, "config")
    ts, rmax, grid_n = _sweep(cfg, [0.0, 0.1, 0.5, 1.0], 0.95, 12)

    def run(pcfg, path, cid):
        tol = _num(pcfg, "tol", path, 1e-10)
        space = build_space(_get(pcfg, "space", path, {"kind": "hardy", "p": 2.0}), f"{path}.space")
        phi = build_flow(_get(pcfg, "flow", path, required=True), f"{path}.flow")
        m = build_cocycle(_get(pcfg, "cocycle", path, required=True), phi, f"{path}.cocycle")
        sg = WcSemigroup(phi, m, space)
        grid = _grid_for(phi.domain, rmax, grid_n)
        r_flow = flows.semiflow_law_residual(phi, ts, grid)
        r_coc = cocycles.cocycle_law_residual(m, phi, ts, grid)
        r_sg = max(
            semigroup.semigroup_residual(sg, t, s, grid) for t in ts for s in ts
        )
        numbers = {
            "semiflow_residual": r_flow,
            "cocycle_residual": r_coc,
            "semigroup_residual": r_sg,
            "tol": tol,
        }
        return Case(
            id=cid,
            inputs={"pair": pcfg["label"]},
            numbers=numbers,
            verdict=bool(max(r_flow, r_coc, r_sg) < tol),
            rows=[numbers],
        )

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
        _check_keys(ccfg, _COCYCLE_KEYS, path)
        cid = f"cocycle/{_get(ccfg, 'type', path, '?')}{i}"

        def run(ccfg=ccfg, path=path, cid=cid):
            m = build_cocycle(ccfg, phi, path)
            res = cocycles.cocycle_law_residual(m, phi, ts, grid)
            numbers = {"law_residual": res}
            ok = res < tols["law"]
            if m.provenance == "integral" and m.g is not None:
                worst = 0.0
                for z in grid[:: max(1, len(grid) // 6)]:
                    est = cocycles.mdot0(m, z)
                    worst = max(worst, abs(est.value - complex(np.asarray(m.g(z)))))
                numbers["mdot0_roundtrip"] = worst
                ok = ok and worst < tols["mdot0"]
            return Case(
                id=cid,
                inputs={"cocycle": m.name, "flow": phi.name},
                numbers=numbers,
                verdict=bool(ok),
                rows=[numbers],
            )

        cases.append(_guarded(cid, {"flow": phi.name}, run))
    return cases


def run_bound_table(cfg: dict) -> list:
    _check_keys(cfg, {"suite", "cases", "ts", "slack", "max_test_degree"}, "config")
    ts = _nums(cfg, "ts", "config", [0.25, LN2, 1.0])
    slack = _num(cfg, "slack", "config", 1e-3)
    max_deg = _num(cfg, "max_test_degree", "config", 8, int)

    def run(bcfg, path, cid):
        sg = _build_semigroup(bcfg, path)
        space, phi, m = sg.space, sg.phi, sg.m
        testset = semigroup.default_test_functions(space, max_degree=max_deg)
        ref_norms = [spaces.norm(space, f) for f in testset]
        rows, ok = [], True
        for t in ts:
            res = semigroup.theoretical_bound(sg, t)
            res.empirical_lower = semigroup.operator_norm_lower_bound(
                sg, t, testset=testset, ref_norms=ref_norms
            )
            rows.append(
                {
                    "t": t,
                    "theoretical": res.theoretical,
                    "empirical_lower": res.empirical_lower,
                    "formula": res.formula_tag,
                }
            )
            ok = ok and res.dominance_ok(slack)
        worst_ratio = max(r["empirical_lower"] / r["theoretical"] for r in rows)
        return Case(
            id=cid,
            inputs={"space": space.label, "flow": phi.name, "cocycle": m.name},
            numbers={"worst_ratio": worst_ratio, "slack": slack},
            verdict=bool(ok),
            rows=rows,
        )

    return _run_cases(cfg, "cases", {"label", "space", "flow", "cocycle"}, "bound", run)


def run_generator_check(cfg: dict) -> list:
    _check_keys(cfg, {"suite", "cases", "steps", "radius", "tolerances"}, "config")
    tols = _tolerances(cfg, "config", {"residual": 1e-4, "order_min": 0.9})
    steps = tuple(_nums(cfg, "steps", "config", list(flows.DEFAULT_FD_STEPS)))
    radius = _num(cfg, "radius", "config", 0.9)

    def run(gcfg, path, cid):
        sg = _build_semigroup(gcfg, path)
        space, phi, m = sg.space, sg.phi, sg.m
        f = build_function(_get(gcfg, "f", path, required=True), phi.domain, f"{path}.f")
        G = phi.generator
        if G is None:
            raise ConfigError(f"{path}.flow", "flow has no generator available")
        g = m.g if m.g is not None else holo.constant(0.0, phi.domain)
        rep = semigroup.generator_residual(sg, G, g, f, steps=steps, radius=radius)
        numbers = {
            "residual": rep.extrapolated,
            "order": rep.order,
            "dq_bounded": rep.dq_bounded,
        }
        ok = rep.extrapolated < tols["residual"] and (
            rep.order >= tols["order_min"] or rep.order == float("inf")
        )
        rows = [{"h": h, "sup_residual": r} for h, r in rep.per_h]
        return Case(
            id=cid,
            inputs={"space": space.label, "flow": phi.name, "cocycle": m.name, "f": f.name},
            numbers=numbers,
            verdict=bool(ok),
            rows=rows,
        )

    return _run_cases(cfg, "cases", {"label", "space", "flow", "cocycle", "f"}, "generator", run)


def run_reconstruct(cfg: dict) -> list:
    _check_keys(cfg, {"suite", "cases", "sweep", "tolerances", "ode"}, "config")
    tols = _tolerances(cfg, "config", {"deviation": 1e-6, "generator_fd": 1e-5})
    ts, rmax, grid_n = _sweep(cfg, [0.25, 0.5, 0.75, 1.0], 0.9, 6)
    ode_cfg = _section(cfg, "ode", "config")

    def run(rcfg, path, cid):
        phi_ode = build_flow(
            {"generator": _get(rcfg, "generator", path, required=True), "ode": ode_cfg},
            f"{path}",
        )
        ref = build_flow(_get(rcfg, "reference", path, required=True), f"{path}.reference")
        if phi_ode.domain.kind != ref.domain.kind:
            raise ConfigError(f"{path}.generator", f"a {phi_ode.domain.kind}-domain generator "
                              f"cannot rebuild the {ref.domain.kind}-domain flow {ref.name}")
        grid = _grid_for(ref.domain, rmax, grid_n)
        dev = 0.0
        for t in ts:
            a = np.asarray(phi_ode(t, grid))
            b = np.asarray(ref(t, grid))
            dev = max(dev, float(np.max(np.abs(a - b))))
        fd_err = 0.0
        for z in grid[:: max(1, len(grid) // 5)]:
            est = flows.generator_fd(phi_ode, z)
            ref_val = complex(np.asarray(phi_ode.generator(z)))
            fd_err = max(fd_err, abs(est.value - ref_val))
        numbers = {"max_deviation": dev, "generator_fd_error": fd_err}
        ok = dev < tols["deviation"] and fd_err < tols["generator_fd"]
        return Case(
            id=cid,
            inputs={"generator": phi_ode.name, "reference": ref.name},
            numbers=numbers,
            verdict=bool(ok),
            rows=[numbers],
        )

    return _run_cases(cfg, "cases", {"label", "generator", "reference"}, "reconstruct", run)


def run_continuity_probe(cfg: dict) -> list:
    _check_keys(cfg, {"suite", "cases"}, "config")

    def run(pcfg, path, cid):
        sg = _build_semigroup(pcfg, path)
        space, phi, m = sg.space, sg.phi, sg.m
        f = build_function(_get(pcfg, "f", path, required=True), phi.domain, f"{path}.f")
        ts = _nums(pcfg, "ts", path, [0.1, 0.01, 0.001])
        radii = _nums(pcfg, "radii", path, [0.5, 0.9])
        tols = _section(pcfg, "tolerances", path)
        _check_keys(tols, {"co", "norm"}, f"{path}.tolerances")
        cap = _get(pcfg, "norm_cap", path)
        probe = semigroup.continuity_probe(
            sg,
            f,
            ts,
            radii,
            tol_co=_number(tols.get("co", 1e-3), f"{path}.tolerances.co"),
            tol_norm=_number(tols.get("norm", 1e-3), f"{path}.tolerances.norm"),
            norm_cap=_number(cap, f"{path}.norm_cap") if cap is not None else None,
        )
        expect = _section(pcfg, "expect", path)
        _check_keys(expect, {"gamma", "norm"}, f"{path}.expect")
        ok = True
        if "gamma" in expect:
            ok = ok and probe.gamma_verdict == bool(expect["gamma"])
        if "norm" in expect:
            ok = ok and probe.norm_verdict == bool(expect["norm"])
        rows = [
            {
                "t": rec.t,
                "norm_residual": rec.norm_residual,
                "norm_of_Cf": rec.norm_of_Cf,
                **{f"co_residual_r{r:g}": v for r, v in rec.co_residuals},
            }
            for rec in probe.records
        ]
        return Case(
            id=cid,
            inputs={"space": space.label, "flow": phi.name, "cocycle": m.name, "f": f.name},
            numbers={
                "gamma_verdict": probe.gamma_verdict,
                "norm_verdict": probe.norm_verdict,
            },
            verdict=bool(ok),
            rows=rows,
        )

    allowed = {"label", "space", "flow", "cocycle", "f", "ts", "radii", "tolerances",
               "norm_cap", "expect"}
    return _run_cases(cfg, "cases", allowed, "continuity", run)


def run_admissibility(cfg: dict) -> list:
    _check_keys(cfg, {"suite", "flow", "cases", "tol"}, "config")
    tol = _num(cfg, "tol", "config", 1e-8)
    phi = build_flow(_get(cfg, "flow", "config", required=True), "flow")
    if phi.generator is None:
        raise ConfigError("flow", "admissibility needs a flow with a generator")
    search = flows.fixed_points(phi, phi.generator, _grid_for(phi.domain, 0.9))

    def run(acfg, path, cid):
        g = _expr(_get(acfg, "g", path, required=True), phi.domain, f"{path}.g")
        verdict = cocycles.coboundary_admissibility(
            g, phi.generator, None, list(search.points), tol=tol
        )
        expect = _get(acfg, "expect_admissible", path)
        ok = verdict.admissible if expect is None else verdict.admissible == bool(expect)
        rows = [
            {
                "point": r.point,
                "ratio": r.ratio,
                "nearest_order": r.nearest_order,
                "distance": r.distance,
                "admissible": r.admissible,
            }
            for r in verdict.records
        ]
        return Case(
            id=cid,
            inputs={"flow": phi.name, "g": g.name, "fixed_points": list(search.points)},
            numbers={"admissible": verdict.admissible},
            verdict=bool(ok),
            rows=rows,
        )

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
