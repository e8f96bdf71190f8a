"""Semiflow catalog, sample grids, generator extraction, ODE reconstruction.

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
from .holo import Domain, HoloFn, REAL_LINE, UNIT_DISC, richardson

DEFAULT_FD_STEPS = (1e-2, 5e-3, 2.5e-3)
# RK4 step control of every ODE flow: the first step, the local error a step
# may make, and how near the circle a disc trajectory may come.
ODE_H0 = 1e-3
ODE_TOL_STEP = 1e-10
ODE_EXIT_MARGIN = 1e-9
# RK4 passes per _integrate call; the default configs never need more than 66.
ODE_STEP_BUDGET = 4096
FIXED_POINT_TOL = 1e-8  # |G| at a fixed point; a verified one drifts < 10x this


@dataclass(frozen=True, kw_only=True)
class Semiflow:
    """Time-indexed family phi_t.

    ``eval`` maps (t, z) -> points for a numpy array z of the domain's dtype
    and a time t that is a float or an array broadcasting to z's shape (one
    time per point); calling the semiflow passes a scalar z as a one-point
    array. A law check takes one call per set of times (:meth:`at_times`),
    so an ODE flow runs one RK4 batch for all of them.
    ``generator`` carries the vector field G = d/dt phi_t at t = 0.
    ``prime`` carries the closed-form space derivative phi_t'(z) when known;
    otherwise differentiation goes through ``holo.derivative_on_grid``.
    """

    eval: Callable
    domain: Domain = UNIT_DISC
    name: str = ""
    generator: HoloFn
    prime: Callable | None = None

    def __call__(self, t: float, z):
        return holo.at_points(lambda w: self.eval(t, w), z, self.domain.dtype)

    def at_times(self, ts, z):
        """phi_t(z) for each time t of the sequence ts, one row per time, in one
        call: a column of the times against the points z, repeated per time.
        An ODE flow steps each point alone (:func:`_integrate`), so row i is
        phi(ts[i], z) bit for bit, and the first failing row is raised."""
        ts, z = np.asarray(ts, dtype=float), np.asarray(z)
        return np.asarray(self(ts.reshape((-1,) + (1,) * z.ndim),
                               np.broadcast_to(z, ts.shape + z.shape)))

    def space_derivative(self, t: float, z):
        """phi_t'(z), closed form when available, numerical otherwise."""
        if self.prime is not None:
            return holo.at_points(lambda w: self.prime(t, w), z, self.domain.dtype)
        return holo.derivative_on_grid(HoloFn(lambda w: self.eval(t, w), self.domain), z)


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

# The parameters of each catalog semiflow, with their defaults.
CATALOG_PARAMS = {"dilation": {"c": 1 + 0j}, "rotation": {"rate": 1.0}, "attracting": {},
                  "translation-real": {}, "cubic-real": {}, "identity": {"domain": "disc"}}


def _affine_semiflow(name: str, a, b, generator_name: str, domain: Domain = UNIT_DISC) -> Semiflow:
    """The flow of G(z) = a z + b: phi_t(z) = e^(at) z + beta - beta e^(at) about
    the fixed point beta = -b/a, or z + b t for a = 0; G' = a and phi_t' = e^(at)."""
    if a == 0:
        def flow(t, z):
            return z + b * t
    else:
        beta = -b / a

        def flow(t, z):
            e = np.exp(a * t)
            return e * z + beta - beta * e
    return Semiflow(
        eval=flow,
        domain=domain,
        name=name,
        generator=HoloFn(lambda z: a * z + b, domain, name=generator_name,
                         deriv=lambda z: np.full(np.shape(z), a, dtype=domain.dtype)),
        prime=lambda t, z: np.full(np.shape(z), np.exp(a * t), dtype=domain.dtype),
    )


def make_catalog_semiflow(name: str, params: dict | None = None) -> Semiflow:
    """A closed-form semiflow by name; CATALOG_PARAMS lists its parameters
    and their defaults. All but ``cubic-real`` are affine flows."""
    if name not in CATALOG_PARAMS:
        raise UnknownCatalogEntry(f"no catalog semiflow named {name!r}")
    for key in params or {}:
        if key not in CATALOG_PARAMS[name]:
            raise InvalidParam(f"{key}: not a parameter of {name}")
    params = {**CATALOG_PARAMS[name], **(params or {})}
    if name == "dilation":
        c = complex(params["c"])
        if c.real < 0:
            raise InvalidParam("dilation requires Re(c) >= 0, else the disc is not invariant")
        return _affine_semiflow(name, -c, 0, "-c*z")
    if name == "rotation":
        return _affine_semiflow(name, 1j * float(params["rate"]), 0, "i*rate*z")
    if name == "attracting":
        return _affine_semiflow(name, -1.0, 1.0, "1-z")
    if name == "translation-real":
        return _affine_semiflow(name, 0, 1.0, "1", REAL_LINE)
    if name == "cubic-real":
        return Semiflow(
            eval=lambda t, x: (np.cbrt(x) + t / 3.0) ** 3,
            domain=REAL_LINE,
            name="cubic-real",
            generator=HoloFn(lambda x: np.cbrt(x) ** 2, REAL_LINE, name="x^(2/3)"),
        )
    key = params["domain"]  # "identity", the one name left
    if key not in ("disc", "real"):
        raise InvalidParam(f"identity domain must be disc or real, got {key!r}")
    return _affine_semiflow(name, 0, 0, "0", UNIT_DISC if key == "disc" else REAL_LINE)


# ---------------------------------------------------------------------------
# sample grids and generator extraction
# ---------------------------------------------------------------------------

def disc_sample_grid(rmax: float = 0.95, n_radii: int = 4, n_angles: int = 12):
    radii = np.linspace(rmax / n_radii, rmax, n_radii)
    angles = np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
    return np.concatenate([[0.0 + 0.0j], (radii[:, None] * angles[None, :]).ravel()])


def real_sample_grid(xmax: float = 10.0, n: int = 21):
    return np.linspace(-xmax, xmax, n)


def right_derivative(quotients, steps, what: str):
    """Richardson limit h -> 0+ of difference quotients over a decreasing step
    ladder, elementwise: ``quotients(steps)`` gives one point array per step.

    The ladder is checked first, so no quotient is taken at a bad step.
    Raises NonConvergent("<what> quotients diverge ...") when, at any point,
    the last consecutive difference grows past ten times the first.
    """
    steps = tuple(float(h) for h in steps)
    if len(steps) < 2 or min(steps) <= 0 or any(b >= a for a, b in zip(steps, steps[1:])):
        raise InvalidParam("steps must be two or more positive, strictly decreasing values")
    quotients = list(quotients(steps))
    diffs = [np.abs(a - b) for a, b in zip(quotients, quotients[1:])]
    scale = np.maximum(1.0, np.max(np.abs(quotients), axis=0))
    if len(diffs) >= 2 and np.any(diffs[-1] > 10.0 * diffs[0] + 1e-9 * scale):
        raise NonConvergent(f"{what} quotients diverge as h decreases")
    return richardson(quotients, steps, order=1.0)


def generator_fd(phi: Semiflow, z, steps=DEFAULT_FD_STEPS):
    """G = d/dt phi_t at t = 0+: the one-sided quotients (phi_h(z) - z)/h,
    elementwise over the point array z, with phi_h for every step h in one
    flow call."""
    def limit(w):
        def quotients(hs):
            return [(moved - w) / h for h, moved in zip(hs, phi.at_times(hs, w))]

        return right_derivative(quotients, steps, "one-sided")

    return holo.at_points(limit, z, phi.domain.dtype)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def _newton_refine(G: HoloFn, seed):
    """Newton on G from seed until its step is at rounding level (a small |G|
    stops seeds apart near a multiple zero); a zero if |G| < FIXED_POINT_TOL."""
    is_real = G.domain.kind == "real"
    z = float(np.real(seed)) if is_real else complex(seed)
    for _ in range(80):
        if G.domain.kind == "disc" and abs(z) >= 1.0:
            return None
        if is_real:
            # step scales with |z| so non-Lipschitz zeros (x^{2/3}) stay tractable
            h = max(1e-13, 0.05 * abs(z))
            dg = holo.real_derivative_grid(G.fn, np.asarray([z]), h0=h)[0]
        else:
            dg = holo.derivative_on_grid(G, z)
        if abs(dg) < 1e-14:
            break
        step = G(z) / dg
        z = float((z - step).real) if is_real else z - step
        if abs(step) <= 4.0 * np.finfo(float).eps * max(1.0, abs(z)):
            break
    return z if abs(G(z)) < FIXED_POINT_TOL else None


def fixed_points(phi: Semiflow, grid) -> FixedPointSearch:
    """Grid-seeded Newton zeros of G = phi.generator, verified against the semiflow itself.

    Each candidate b must satisfy both G(b) ~ 0 and phi_t(b) ~ b at
    t = 0.1, 0.5, 1; zeros of G that the flow moves are reported as rejected
    (that is exactly how the real cube-root flow escapes its critical point).
    """
    G, pts = phi.generator, np.asarray(grid)
    with np.errstate(all="ignore"):  # a pole on the grid is named below
        gvals = np.abs(np.asarray(G(pts)))
    bad = ~np.isfinite(gvals)
    if np.any(bad):
        raise InvalidParam(f"the generator {G.name} is not finite at {pts[np.argmax(bad)].item()}")
    scale = float(np.max(gvals))
    if scale < FIXED_POINT_TOL:
        return FixedPointSearch(points=(), trivial=True)
    found = []
    for seed in pts:
        z = _newton_refine(G, seed)
        if (z is not None and phi.domain.contains(z, margin=1e-12)
                and all(abs(z - w) > 1e-6 for w in found)):
            found.append(z)
    found.sort(key=lambda w: (round(abs(w), 12), np.angle(complex(w))))
    verified, rejected = [], []
    for b in found:
        drift = max(abs(phi(t, b) - b) for t in (0.1, 0.5, 1.0))
        (verified if drift < FIXED_POINT_TOL * 10 else rejected).append(b)
    return FixedPointSearch(points=tuple(verified), rejected=tuple(rejected))


# ---------------------------------------------------------------------------
# ODE reconstruction
# ---------------------------------------------------------------------------

def _rk4_step(G, y, h, k1=None):
    k1 = G(y) if k1 is None else k1
    k2 = G(y + 0.5 * h * k1)
    k3 = G(y + 0.5 * h * k2)
    k4 = G(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate(G, z, t_target, domain: Domain):
    """RK4 from each start point of the 1-d array z to its own time in the
    array t_target, with per-point t, step h and accept/halve/double
    decisions. A failed point (one whose step leaves the domain or is not
    finite) stops stepping, as do all later ones, and the first failure in
    array order is raised. Every live point takes one step
    per pass, so a point still short of its time after ODE_STEP_BUDGET passes
    fails here as it would alone."""
    y, t, h = z.copy(), np.zeros(z.shape), np.minimum(ODE_H0, t_target)
    bound, first, failure, passes = 1.0 - ODE_EXIT_MARGIN, len(z), None, 0
    while (idx := np.flatnonzero(t[:first] < t_target[:first])).size:
        if passes == ODE_STEP_BUDGET:
            raise StepUnderflow(f"trajectory from {z[idx[0]].item()} stalled at t={t[idx[0]]:g} "
                                f"after {ODE_STEP_BUDGET} RK4 steps")
        hi = np.minimum(h[idx], t_target[idx] - t[idx])
        if np.any(hi < 1e-14):
            first = int(idx[np.argmax(hi < 1e-14)])
            failure = StepUnderflow(f"step size underflow at t={t[first]:g}")
            continue
        with np.errstate(all="ignore"):  # a non-finite step is reported below
            y0 = y[idx]
            k1 = G(y0)  # the first stage of the full step and of the first half step
            full = _rk4_step(G, y0, hi, k1)
            half = _rk4_step(G, _rk4_step(G, y0, 0.5 * hi, k1), 0.5 * hi)
            diff = half - full  # hypot and division by parts round as Python's complex abs and / do
            err = np.hypot(diff.real, diff.imag)
            y_new = half + (diff.view(float) / 15.0).view(diff.dtype)  # local 5th-order correction
        ok = ~(err > ODE_TOL_STEP)
        bad = ~np.isfinite(y_new)
        out = bad | ok & (np.hypot(y_new.real, y_new.imag) >= bound) & (domain.kind == "disc")
        if np.any(out):
            j = int(np.argmax(out))
            first = int(idx[j])
            t0, h0, r0 = t[first].item(), hi[j].item(), abs(y[first].item())
            if bad[j]:
                failure = NonConvergent(f"trajectory from {z[first].item()} took a non-finite "
                                        f"RK4 step at t={t0:g}")
            else:
                frac = (bound - r0) / max(abs(y_new[j].item()) - r0, 1e-300)
                failure = EscapedDomain(
                    f"trajectory from {z[first].item()} reached the boundary near "
                    f"t={t0 + frac * h0:g}",
                    tau_estimate=t0 + min(max(frac, 0.0), 1.0) * h0,
                )
            continue
        passes += 1
        y[idx[ok]] = y_new[ok]
        t[idx[ok]] += hi[ok]
        h[idx] = np.where(ok, np.where(err < ODE_TOL_STEP / 32.0, 2.0 * hi, hi), 0.5 * hi)
    if failure is not None:
        raise failure
    return y


def semiflow_from_generator(G: HoloFn) -> Semiflow:
    """Semiflow rebuilt by integrating u' = G(u), u(0) = z with RK4.

    Evaluation raises EscapedDomain (with the escape-time estimate) once a
    trajectory gets within ODE_EXIT_MARGIN of the boundary: the local-semiflow
    case is surfaced, not clamped.
    """
    is_real, g = G.domain.kind == "real", G.fn  # the steps are 1-d arrays of the domain's dtype
    field = (lambda y: np.real(g(y))) if is_real else (lambda y: np.asarray(g(y), dtype=complex))

    def eval_fn(t, z):
        ts = np.broadcast_to(np.asarray(t, dtype=float), z.shape).ravel()
        if np.any(ts < 0):
            raise DomainExit("semiflow times must be >= 0")
        return _integrate(field, z.ravel(), ts, G.domain).reshape(z.shape)

    return Semiflow(
        eval=eval_fn,
        domain=G.domain,
        name=f"ode[{G.name or 'G'}]",
        generator=G,
    )
