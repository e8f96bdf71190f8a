"""Semiflow catalog, law verification, generator extraction, ODE reconstruction.

A semiflow is a time-indexed family of self-maps of its domain with
phi_0 = id and phi_{t+s} = phi_t o phi_s. Catalog entries are closed forms;
semiflows can also be rebuilt from a vector field by integrating
u'(t) = G(u(t)), u(0) = z with classical RK4 under step-halving error
control. A trajectory that reaches the domain boundary surfaces its escape
time as an error, never a silent clamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import holo
from .errors import (
    DomainExit,
    EscapedDomain,
    InvalidParam,
    NonConvergent,
    StepUnderflow,
    UnknownCatalogEntry,
)
from .holo import Domain, HoloFn, PLANE, REAL_LINE, UNIT_DISC, observed_order, richardson

DEFAULT_FD_STEPS = (1e-2, 5e-3, 2.5e-3)


@dataclass(frozen=True)
class OdeCfg:
    """Step control for semiflow reconstruction."""

    h0: float = 1e-3
    tol_step: float = 1e-10
    exit_margin: float = 1e-9

    def __post_init__(self):
        if min(self.h0, self.tol_step, self.exit_margin) <= 0:
            raise ValueError("all OdeCfg fields must be positive")


@dataclass(frozen=True)
class Semiflow:
    """Time-indexed family phi_t.

    ``eval`` maps (t, z) -> point; z may be a numpy array for catalog flows.
    ``generator`` carries the closed-form vector field when known.
    ``prime`` carries the closed-form space derivative phi_t'(z) and is set
    only for affine flows, whose derivative is constant in z; otherwise
    differentiation goes through ``holo.derivative_on_grid``.
    """

    eval: Callable
    domain: Domain = UNIT_DISC
    name: str = ""
    generator: HoloFn | None = None
    prime: Callable | None = None

    def __call__(self, t: float, z):
        return self.eval(t, z)

    def space_derivative(self, t: float, z):
        """phi_t'(z), closed form when available, numerical otherwise."""
        if self.prime is not None:
            return self.prime(t, np.asarray(z, dtype=complex) if self.domain.kind != "real" else np.asarray(z, dtype=float))
        return holo.derivative_on_grid(HoloFn(lambda w: self.eval(t, w), self.domain), z)


@dataclass(frozen=True)
class GeneratorEstimate:
    """Richardson-extrapolated right-derivative at t = 0."""

    value: complex
    order_evidence: float
    steps_used: tuple


@dataclass(frozen=True)
class FixedPointSearch:
    """Zeros of the vector field that the semiflow actually fixes.

    ``trivial`` flags the degenerate identity flow (G vanishes everywhere).
    """

    points: tuple
    trivial: bool = False
    rejected: tuple = ()


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def make_catalog_semiflow(name: str, params: dict | None = None) -> Semiflow:
    """Closed-form semiflows: dilation(c), attracting, rotation(rate),
    translation-real, cubic-real, identity."""
    params = dict(params or {})
    if name == "dilation":
        c = complex(params.get("c", 1.0))
        if c.real < 0:
            raise InvalidParam("dilation requires Re(c) >= 0, else the disc is not invariant")
        return Semiflow(
            eval=lambda t, z, c=c: np.exp(-c * t) * np.asarray(z, dtype=complex),
            domain=UNIT_DISC,
            name="dilation",
            generator=HoloFn(lambda z, c=c: -c * z, UNIT_DISC, name="-c*z",
                              deriv=lambda z, c=c: np.full(np.shape(z), -c, dtype=complex)),
            prime=lambda t, z, c=c: np.full(np.shape(z), np.exp(-c * t), dtype=complex),
        )
    if name == "rotation":
        try:
            rate = float(params.get("rate", 1.0))
        except (TypeError, ValueError):
            raise InvalidParam(f"rotation rate must be a real number, got {params['rate']!r}") from None
        w = 1j * rate
        return Semiflow(
            eval=lambda t, z, w=w: np.exp(w * t) * np.asarray(z, dtype=complex),
            domain=UNIT_DISC,
            name="rotation",
            generator=HoloFn(lambda z, w=w: w * z, UNIT_DISC, name="i*rate*z",
                              deriv=lambda z, w=w: np.full(np.shape(z), w, dtype=complex)),
            prime=lambda t, z, w=w: np.full(np.shape(z), np.exp(w * t), dtype=complex),
        )
    if name == "attracting":
        return Semiflow(
            eval=lambda t, z: np.exp(-t) * np.asarray(z, dtype=complex) + 1.0 - np.exp(-t),
            domain=UNIT_DISC,
            name="attracting",
            generator=HoloFn(lambda z: 1.0 - z, UNIT_DISC, name="1-z",
                              deriv=lambda z: np.full(np.shape(z), -1.0, dtype=complex)),
            prime=lambda t, z: np.full(np.shape(z), np.exp(-t), dtype=complex),
        )
    if name == "translation-real":
        return Semiflow(
            eval=lambda t, x: np.asarray(x, dtype=float) + t,
            domain=REAL_LINE,
            name="translation-real",
            generator=HoloFn(lambda x: np.ones(np.shape(x)), REAL_LINE, name="1"),
            prime=lambda t, x: np.ones(np.shape(x)),
        )
    if name == "cubic-real":
        return Semiflow(
            eval=lambda t, x: (np.cbrt(np.asarray(x, dtype=float)) + t / 3.0) ** 3,
            domain=REAL_LINE,
            name="cubic-real",
            generator=HoloFn(lambda x: np.cbrt(np.asarray(x, dtype=float)) ** 2, REAL_LINE, name="x^(2/3)"),
        )
    if name == "identity":
        key = params.get("domain", "disc")
        if key not in ("disc", "real", "plane"):
            raise InvalidParam(f"identity domain must be disc, real or plane, got {key!r}")
        dom = {"disc": UNIT_DISC, "real": REAL_LINE, "plane": PLANE}[key]
        zero = HoloFn(lambda z: np.zeros(np.shape(z), dtype=complex if dom.kind != "real" else float), dom, name="0")
        return Semiflow(
            eval=lambda t, z: np.asarray(z, dtype=float if dom.kind == "real" else complex) + 0,
            domain=dom,
            name="identity",
            generator=zero,
            prime=lambda t, z: np.ones(np.shape(z), dtype=complex if dom.kind != "real" else float),
        )
    raise UnknownCatalogEntry(f"no catalog semiflow named {name!r}")


# ---------------------------------------------------------------------------
# law residuals and generator extraction
# ---------------------------------------------------------------------------

def disc_sample_grid(rmax: float = 0.95, n_radii: int = 4, n_angles: int = 12):
    radii = np.linspace(rmax / n_radii, rmax, n_radii)
    angles = np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
    return np.concatenate([[0.0 + 0.0j], (radii[:, None] * angles[None, :]).ravel()])


def real_sample_grid(xmax: float = 10.0, n: int = 21):
    return np.linspace(-xmax, xmax, n)


def semiflow_law_residual(phi: Semiflow, ts, grid) -> float:
    """max over samples of |phi_{t+s}(z) - phi_t(phi_s(z))| and |phi_0(z) - z|."""
    pts = np.asarray(grid)
    if not phi.domain.contains(pts, margin=0.0):
        raise DomainExit("sample grid must lie inside the domain", point=pts)
    worst = float(np.max(np.abs(np.asarray(phi(0.0, pts)) - pts)))
    for t in ts:
        inner = np.asarray(phi(t, pts))
        if phi.domain.kind == "disc" and not phi.domain.contains(inner):
            bad = int(np.argmax(np.abs(inner) >= phi.domain.radius))
            raise DomainExit(
                f"phi_t left the domain at t={t:g}", point=pts.flat[bad], t=t
            )
        for s in ts:
            lhs = np.asarray(phi(t + s, pts))
            rhs = np.asarray(phi(s, inner))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def right_derivative(quotient, steps, what: str) -> GeneratorEstimate:
    """Richardson limit h -> 0+ of quotient(h) over a decreasing step ladder.

    Raises NonConvergent("<what> quotients diverge ...") when the last
    consecutive difference grows past ten times the first.
    """
    steps = tuple(float(h) for h in steps)
    quotients = [quotient(h) for h in steps]
    diffs = [abs(a - b) for a, b in zip(quotients, quotients[1:])]
    scale = max(1.0, max(abs(q) for q in quotients))
    if len(diffs) >= 2 and diffs[-1] > 10.0 * diffs[0] + 1e-9 * scale:
        raise NonConvergent(f"{what} quotients diverge as h decreases")
    return GeneratorEstimate(
        value=richardson(quotients, steps, order=1.0),
        order_evidence=observed_order(quotients, steps),
        steps_used=steps,
    )


def generator_fd(phi: Semiflow, z, steps=DEFAULT_FD_STEPS) -> GeneratorEstimate:
    """One-sided difference (phi_h(z) - z)/h with Richardson extrapolation."""
    steps = tuple(float(h) for h in steps)
    if any(h <= 0 for h in steps) or any(b >= a for a, b in zip(steps, steps[1:])):
        raise InvalidParam("steps must be positive and strictly decreasing")
    z0 = complex(z) if phi.domain.kind != "real" else float(z)
    return right_derivative(
        lambda h: (complex(np.asarray(phi(h, z0))) - complex(z0)) / h, steps, "one-sided"
    )


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def _newton_refine(G: HoloFn, seed, tol: float, max_iter: int = 80):
    is_real = G.domain.kind == "real"
    z = float(np.real(seed)) if is_real else complex(seed)
    for _ in range(max_iter):
        if G.domain.kind == "disc" and abs(z) >= G.domain.radius:
            return None
        gz = complex(np.asarray(G(z)))
        if abs(gz) < tol:
            return z
        if is_real:
            # step scales with |z| so non-Lipschitz zeros (x^{2/3}) stay tractable
            h = max(1e-13, 0.05 * abs(z))
            dg = complex(holo.real_derivative_grid(G.fn, np.asarray([z]), h0=h)[0])
        else:
            dg = complex(holo.derivative_on_grid(G, z))
        if abs(dg) < 1e-14:
            return None
        step = gz / dg
        z = float((z - step).real) if is_real else z - step
    return None


def fixed_points(phi: Semiflow, G: HoloFn, grid, tol: float = 1e-8,
                 ts=(0.1, 0.5, 1.0)) -> FixedPointSearch:
    """Grid-seeded Newton zeros of G, verified against the semiflow itself.

    Each candidate b must satisfy both G(b) ~ 0 and phi_t(b) ~ b over the
    sampled times; zeros of G that the flow moves are reported as rejected
    (that is exactly how the real cube-root flow escapes its critical point).
    """
    pts = np.asarray(grid)
    gvals = np.abs(np.asarray(G(pts)))
    scale = float(np.max(gvals))
    if scale < tol:
        return FixedPointSearch(points=(), trivial=True)
    found = []
    for seed in pts:
        z = _newton_refine(G, seed, tol)
        if z is None:
            continue
        if not phi.domain.contains(z, margin=1e-12):
            continue
        if all(abs(z - w) > 1e-6 for w in found):
            found.append(z)
    found.sort(key=lambda w: (round(abs(w), 12), np.angle(complex(w))))
    verified, rejected = [], []
    for b in found:
        drift = max(abs(complex(np.asarray(phi(t, b))) - complex(b)) for t in ts)
        (verified if drift < tol * 10 else rejected).append(b)
    return FixedPointSearch(points=tuple(verified), rejected=tuple(rejected))


# ---------------------------------------------------------------------------
# ODE reconstruction
# ---------------------------------------------------------------------------

def _rk4_step(G, y, h):
    k1 = G(y)
    k2 = G(y + 0.5 * h * k1)
    k3 = G(y + 0.5 * h * k2)
    k4 = G(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate(G, z, t_target: float, cfg: OdeCfg, domain: Domain):
    if t_target == 0.0:
        return z
    y, t, h = z, 0.0, min(cfg.h0, t_target)
    is_disc = domain.kind == "disc"
    while t < t_target:
        h = min(h, t_target - t)
        if h < 1e-14:
            raise StepUnderflow(f"step size underflow at t={t:g}")
        full = _rk4_step(G, y, h)
        half = _rk4_step(G, _rk4_step(G, y, 0.5 * h), 0.5 * h)
        err = abs(half - full)
        if err > cfg.tol_step:
            h *= 0.5
            continue
        y_new = half + (half - full) / 15.0  # local 5th-order correction
        if is_disc and abs(y_new) >= domain.radius - cfg.exit_margin:
            bound = domain.radius - cfg.exit_margin
            frac = (bound - abs(y)) / max(abs(y_new) - abs(y), 1e-300)
            raise EscapedDomain(
                f"trajectory from {z} reached the boundary near t={t + frac * h:g}",
                tau_estimate=t + min(max(frac, 0.0), 1.0) * h,
            )
        y = y_new
        t += h
        if err < cfg.tol_step / 32.0:
            h *= 2.0
    return y


def semiflow_from_generator(G: HoloFn, cfg: OdeCfg = OdeCfg()) -> Semiflow:
    """Semiflow rebuilt by integrating u' = G(u), u(0) = z with RK4.

    Evaluation raises EscapedDomain (with the escape-time estimate) once a
    trajectory gets within exit_margin of the boundary: the local-semiflow
    case is surfaced, not clamped.
    """
    is_real = G.domain.kind == "real"

    def eval_fn(t, z):
        if t < 0:
            raise DomainExit("semiflow times must be >= 0", t=t)
        zs = np.asarray(z, dtype=float if is_real else complex)
        if zs.ndim == 0:
            scalar = float(zs) if is_real else complex(zs)
            out = _integrate(lambda y: (np.real(G(y)) if is_real else complex(G(y))), scalar, float(t), cfg, G.domain)
            return out
        flat = zs.ravel()
        out = np.empty(flat.shape, dtype=zs.dtype)
        for i, w in enumerate(flat):
            scalar = float(w) if is_real else complex(w)
            out[i] = _integrate(lambda y: (np.real(G(y)) if is_real else complex(G(y))), scalar, float(t), cfg, G.domain)
        return out.reshape(zs.shape)

    return Semiflow(
        eval=eval_fn,
        domain=G.domain,
        name=f"ode[{G.name or 'G'}]",
        generator=G,
    )
