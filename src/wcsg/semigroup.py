"""Weighted composition operators C(t)f = m_t (f o phi_t) on a chosen space.

Provides the operator itself, one sweep for the semiflow, cocycle and
semigroup law residuals, theoretical operator-norm bounds with empirical
lower-bound witnesses, the generator-formula check (difference quotients
against G f' + g f at interior points), and a probe for mixed-topology versus
norm strong continuity.

Operator norms are bracketed, never claimed exact: a closed-form upper bound
above, a sup over a fixed, versioned test-function set below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import holo, spaces
from .cocycles import Semicocycle
from .errors import DomainExit, InvalidParam, UnsupportedSpaceBound
from .flows import Semiflow, right_derivative
from .holo import HoloFn
from .spaces import SeminormIndex, SpaceSpec, certified_sup, co_seminorm, norm


@dataclass(frozen=True)
class WcSemigroup:
    phi: Semiflow
    m: Semicocycle
    space: SpaceSpec

    def __post_init__(self):
        if self.phi.domain.kind != self.space.domain.kind:
            raise InvalidParam(f"flow {self.phi.name} acts on the {self.phi.domain.kind} domain, "
                               f"but {self.space.label} lives on the {self.space.domain.kind} domain")


def apply(sg: WcSemigroup, t: float, f: HoloFn) -> HoloFn:
    """The evaluator z -> m_t(z) f(phi_t(z)); holomorphy is preserved.

    The result carries the chain-rule derivative m_t f'(phi_t) phi_t' when f
    has a closed-form derivative, phi_t' is closed form and m_t is constant
    in z; otherwise it is differentiated numerically. A trivial cocycle is
    not evaluated or multiplied, so the values keep f's dtype.
    """
    if t < 0:
        raise InvalidParam("semigroup times must be >= 0")
    trivial, phi, m = sg.m.trivial, sg.phi.eval, sg.m.eval  # z is already an array of points

    def fn(z, t=float(t)):
        out = np.asarray(f.fn(np.asarray(phi(t, z))))
        return out if trivial else np.asarray(m(t, z)) * out

    deriv = None
    if f.deriv is not None and sg.phi.prime is not None and sg.m.constant_in_z:
        def deriv(z, t=float(t)):
            out = np.asarray(f.deriv(np.asarray(phi(t, z))))
            if not trivial:
                out = np.asarray(m(t, z)) * out
            return out * np.asarray(sg.phi.prime(t, z))

    return HoloFn(fn, sg.phi.domain, name=f"C({t:g}){f.name or 'f'}", deriv=deriv)


def semigroup_residual(sg: WcSemigroup, ts, grid) -> tuple[float, float, float]:
    """The semiflow, cocycle and semigroup law residuals: over the grid and
    every pair (t, s) of ts, the maxima of |phi_0 - id| and |phi_{t+s} -
    phi_s o phi_t|; of |m_0 - 1| and |m_{t+s} - m_t (m_s o phi_t)|; and of
    |C(t+s)f - C(t)C(s)f| for f in the default corpus.

    The laws are identities in the same values, so phi_u and m_u are
    evaluated once per distinct time u in {0, t, t+s}, phi_s(phi_t) and
    m_s(phi_t) once per pair, and only f runs per corpus function. The flow
    takes one call (one RK4 batch for an ODE flow) for the distinct times and
    one for the pairs, each in the order the pair loop first needs them, and
    runs before the cocycle, so a flow that fails is reported before its
    cocycle. The maxima keep a NaN, so a non-finite value is a non-finite
    residual."""
    ts = [float(t) for t in ts]
    if any(t < 0 for t in ts):
        raise InvalidParam("semigroup times must be >= 0")
    phi, m, pts = sg.phi, sg.m, np.asarray(grid)
    if not phi.domain.contains(pts, margin=0.0):
        raise DomainExit("sample grid must lie inside the domain")
    us = list(dict.fromkeys([0.0] + [u for t in ts for u in (t, *(t + s for s in ts))]))
    phi_at = dict(zip(us, phi.at_times(us, pts)))
    m_at = cache(lambda u: np.asarray(m(u, pts)))

    semiflow = float(np.max(np.abs(phi_at[0.0] - pts)))
    for t in ts:
        if phi.domain.kind == "disc" and not phi.domain.contains(phi_at[t]):
            bad = int(np.argmax(np.abs(phi_at[t]) >= 1.0))
            raise DomainExit(f"phi_t left the domain at t={t:g} from {pts.flat[bad]}")
    pairs = [(t, s) for t in ts for s in ts]
    col = np.reshape([s for _, s in pairs], (-1,) + (1,) * pts.ndim)
    moved = np.reshape([phi_at[t] for t, _ in pairs], (-1,) + pts.shape)
    phi_st = dict(zip(pairs, np.asarray(phi(col, moved))))
    for (t, s), rhs in phi_st.items():
        semiflow = np.maximum(semiflow, np.max(np.abs(phi_at[t + s] - rhs)))

    cocycle, semigroup = float(np.max(np.abs(m_at(0.0) - 1.0))), 0.0
    for t in ts:
        m_t = m_at(t)
        for s in ts:
            m_ts, m_st = m_at(t + s), np.asarray(m(s, phi_at[t]))
            cocycle = np.maximum(cocycle, np.max(np.abs(m_ts - m_t * m_st)))
            for f in spaces.default_corpus(real=sg.space.is_real):
                lhs = m_ts * np.asarray(f.fn(phi_at[t + s]))
                rhs = m_t * (m_st * np.asarray(f.fn(phi_st[t, s])))
                semigroup = np.maximum(semigroup, np.max(np.abs(lhs - rhs)))
    return float(semiflow), float(cocycle), float(semigroup)


# ---------------------------------------------------------------------------
# operator-norm bounds
# ---------------------------------------------------------------------------

def _composition_factor(sg: WcSemigroup, t: float, comps: dict) -> float:
    space, phi = sg.space, sg.phi
    if space.kind in ("hardy", "bergman", "dirichlet", "bloch"):
        phi0 = abs(phi(t, 0.0))
        comps["abs_phi_t_0"] = phi0
        if phi0 >= 1.0:
            raise DomainExit(f"phi_t(0) reached the unit circle at t={t:g}")
    if space.weight is not None:  # Bloch and sup-type spaces
        vfn, bloch = space.weight.fn, space.kind == "bloch"

        def kval(z):  # (|phi_t'| v(z)) / v(phi_t(z)), the factor |phi_t'| on Bloch only
            dphi = np.abs(np.asarray(phi.space_derivative(t, z))) if bloch else 1.0
            return dphi * np.real(vfn(z)) / np.real(vfn(np.asarray(phi(t, z))))

        comp = comps["K_weight"] = certified_sup(kval, space)
    if space.kind == "hardy":
        comp = ((1.0 + phi0) / (1.0 - phi0)) ** (1.0 / space.p)
    elif space.kind == "bergman":
        sup_phi = spaces.modulus_sup(lambda z: phi(t, z), space)
        comps["sup_abs_phi_t"] = sup_phi
        if sup_phi <= phi0:
            raise DomainExit(f"sup |phi_t| does not exceed |phi_t(0)| at t={t:g}")
        a, p = space.alpha, space.p
        if a >= 0:
            K = 1.0
        else:
            K = (sup_phi + phi0) ** (a / p) * (sup_phi + 3.0 * phi0) ** (-a / p)
        comps["bergman_K"] = K
        comp = K * ((sup_phi + phi0) / (sup_phi - phi0)) ** ((a + 2.0) / p)
    elif space.kind == "dirichlet":
        L = -math.log(1.0 - phi0 * phi0)
        comps["L"] = L
        comp = math.sqrt(1.0 + 0.5 * (L + math.sqrt(L * (4.0 + L))))
    elif space.kind == "bloch":
        # the norm carries |f(0)|: account for the moved base point via
        # |f(phi_t(0)) - f(0)| <= (sup |f'| v) * int_0^|phi_t(0)| ds / (1 - s^2)^alpha;
        # with s = tanh u the integrand is cosh(u)^(2 alpha - 2), smooth up to the circle
        seg = holo.time_integral(lambda u, _: np.cosh(u) ** (2.0 * space.alpha - 2.0),
                                 math.atanh(phi0), 0.0, 32, space.policy.tol).real
        comps["base_point_shift"] = seg = float(seg)
        comp = max(1.0, comp + seg)
    return comp


def _multiplier_factor(sg: WcSemigroup, t: float, comps: dict) -> float:
    space = sg.space
    if sg.m.trivial:
        return 1.0
    sup_m = spaces.modulus_sup(lambda z: sg.m(t, z), space)
    if sup_m == 0.0:
        raise InvalidParam(f"sup |m_t| underflowed to 0 at t={t:g}")
    comps["sup_abs_m_t"] = sup_m
    # multiplying by a constant, or on these spaces by any m_t, has norm sup |m_t|
    if sg.m.constant_in_z or space.kind in ("hardy", "bergman", "sup-holo", "sup-cont"):
        return sup_m
    if space.kind == "bloch":
        a = space.alpha
        m_t = HoloFn(lambda z: np.asarray(sg.m(t, z)), sg.phi.domain, name="m_t")
        if a > 1.0:
            L = 2.0 ** (a - 1.0) / (a - 1.0)
            fac = (3.0 + L) * sup_m
        elif a == 1.0:
            def logsup(z):  # |m_t'| times the log weight u log(2/u), u = 1 - |z|^2
                u = 1.0 - np.abs(z) ** 2
                return np.abs(holo.derivative_on_grid(m_t, z)) * (u * np.log(2.0 / u))

            S = certified_sup(logsup, space)
            fac = 3.0 * sup_m + S
        else:
            L = 1.0 / (1.0 - a)
            fac = 3.0 * (1.0 + L) * norm(space, m_t)
        return fac
    raise UnsupportedSpaceBound(
        f"no multiplication-operator bound for {space.label} with cocycle {sg.m.name!r}"
    )


def theoretical_bound(sg: WcSemigroup, t: float) -> dict:
    """Closed-form upper bound for the operator norm of C(t) on the space: the
    bound-table row ``{t, theoretical, formula, components}``, the last
    holding the factors the bound is built from."""
    comps: dict = {}
    comp = comps["composition"] = _composition_factor(sg, t, comps)
    mult = comps["multiplier"] = _multiplier_factor(sg, t, comps)
    tag_map = {"sup-holo": "supweight", "sup-cont": "supweight"}
    base_tag = tag_map.get(sg.space.kind, sg.space.kind)
    tag = base_tag if sg.m.trivial else "product-split"
    return {"t": t, "theoretical": comp * mult, "formula": tag, "components": comps}


def default_test_functions(space: SpaceSpec, max_degree: int = 8):
    """Versioned test-function set for empirical norm witnesses.

    Monomials, reproducing-kernel factors, and one singular inner function.
    The inner function only joins sup-type spaces: its boundary notch is
    thinner than any fixed circle-quadrature grid (Hardy/Bergman means wobble
    at the 1e-3 level there), and its Dirichlet energy is infinite. Real-line
    spaces use the real corpus instead.
    """
    if space.is_real:
        return spaces.default_corpus(real=True)
    fs = [holo.monomial(n) for n in range(max_degree + 1)]
    fs += [holo.mobius_kernel(a) for a in (0.3, 0.5j, -0.7, 0.6 - 0.35j)]
    if space.kind in ("bloch", "sup-holo"):
        fs.append(holo.singular_inner())
    return fs


def operator_norm_lower_bound(sg: WcSemigroup, t: float, testset, ref_norms) -> float:
    """sup over testset of ||C(t)f|| / ||f||, with ||f|| from ref_norms (a lower bound)."""
    best = 0.0
    for f, nf in zip(testset, ref_norms):
        best = max(best, norm(sg.space, apply(sg, t, f)) / nf)
    return best


# ---------------------------------------------------------------------------
# generator diagnostics
# ---------------------------------------------------------------------------

def generator_formula_apply(G: HoloFn, g: HoloFn, f: HoloFn) -> HoloFn:
    """The evaluator z -> G(z) f'(z) + g(z) f(z)."""

    def fn(z):
        df = holo.derivative_on_grid(f, z)
        return np.asarray(G(z)) * df + np.asarray(g(z)) * np.asarray(f.fn(z))

    return HoloFn(fn, f.domain, name=f"A[{f.name or 'f'}]")


def generator_residual(sg: WcSemigroup, f: HoloFn, steps, grid) -> tuple[dict, list]:
    """Difference-quotient evidence for Af = G f' + g f on the grid, with G
    and g read off the semigroup and Af the t -> 0+ limit of (C(h)f - f)/h.

    Returns ``({residual, order}, rows)``: ``residual`` is the sup residual of
    the Richardson limit, ``order`` the observed convergence rate of the
    quotient residuals, inf when a residual is 0 or every residual is at
    rounding level, 1e3 eps max(1, max |Af|, max |f|); ``rows`` holds one
    ``{h, sup_residual}`` per step, sup |quotient - target|. The check is
    pointwise on a sample grid inside the domain, so it says nothing about
    whether f lies in the generator's domain.
    """
    if sg.m.g is None:
        raise InvalidParam(f"the generator g of cocycle {sg.m.name} is not known")
    pts = np.asarray(grid)
    with np.errstate(all="ignore"):  # a pole on the grid is named below
        f_vals = np.asarray(f.fn(pts))
        target = np.asarray(generator_formula_apply(sg.phi.generator, sg.m.g, f).fn(pts))
    for what, vals in (("f", f_vals), ("G f' + g f", target)):
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise InvalidParam(f"{what} is not finite at {pts[np.argmax(bad)].item()}")
    rows = []

    def quotients(hs):
        qs = [(np.asarray(apply(sg, h, f).fn(pts)) - f_vals) / h for h in hs]
        rows.extend({"h": h, "sup_residual": float(np.max(np.abs(q - target)))}
                    for h, q in zip(hs, qs))
        return qs

    limit = right_derivative(quotients, steps, "generator")
    residual = float(np.max(np.abs(limit - target)))

    # residuals at rounding level mean an exact quotient: no order to fit
    hs, res = zip(*((row["h"], row["sup_residual"]) for row in rows))
    floor = 1e3 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(target))),
                                            float(np.max(np.abs(f_vals))))
    if min(res) > 0 and max(res) > floor:
        slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
    else:
        slope = float("inf")

    return {"residual": residual, "order": float(slope)}, rows


# ---------------------------------------------------------------------------
# continuity probe
# ---------------------------------------------------------------------------

def continuity_probe(sg: WcSemigroup, f: HoloFn, ts, radii,
                     tol_co: float = 1e-3, tol_norm: float = 1e-3,
                     norm_cap: float | None = None) -> tuple[dict, list]:
    """Norm-strong versus mixed-topology strong continuity evidence at 0+.

    Returns ``({gamma_verdict, norm_verdict}, rows)`` with one row per t:
    ``t``, ``norm_residual`` ||C(t)f - f||, ``norm_of_Cf`` and one
    ``co_residual_r<repr(r)>`` per radius r, the seminorm of C(t)f - f there.
    gamma_verdict: the compact-open residuals die at the smallest sampled t
    and the orbit stays below ``norm_cap``. norm_verdict: the norm residual
    itself dies.
    """
    ts = [float(t) for t in ts]
    if not ts or min(ts) <= 0 or any(b >= a for a, b in zip(ts, ts[1:])):
        raise InvalidParam("ts must be positive and decreasing toward 0")
    radii = spaces.check_radii(radii)
    if norm_cap is None:
        norm_cap = 10.0 * (norm(sg.space, f) + 1.0)
    rows = []
    for t in ts:
        Cf = apply(sg, t, f)
        diff = Cf - f
        co = [co_seminorm(sg.space, diff, SeminormIndex(r)) for r in radii]
        rows.append({"t": t, "norm_residual": norm(sg.space, diff),
                     "norm_of_Cf": norm(sg.space, Cf),
                     **{f"co_residual_r{r!r}": v for r, v in zip(radii, co)}})
    gamma = all(v < tol_co for v in co) and all(row["norm_of_Cf"] <= norm_cap for row in rows)
    return {"gamma_verdict": bool(gamma),
            "norm_verdict": bool(rows[-1]["norm_residual"] < tol_norm)}, rows
