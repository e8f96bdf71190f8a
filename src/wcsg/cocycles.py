"""Semicocycles for a semiflow: constructors, laws and admissibility.

A semicocycle for phi is a scalar family with m_0 = 1 and
m_{t+s}(z) = m_t(z) m_s(phi_t(z)). Three constructions are provided:

* integral:   m_t(z) = exp(integral_0^t g(phi_s(z)) ds), the integral by
              holo.time_integral (Gauss-Legendre in time, certified by node
              doubling, g finite along every orbit);
* coboundary: m_t = (omega o phi_t)/omega off the zeros of omega, extended
              across each zero by (phi_t')^order; declared zeros are checked
              to be fixed points and the two branches are cross-checked on
              the guard circle;
* derivative: m_t = phi_t', whose generator is G' for the flow's vector
              field G.

A semicocycle is fixed by its generator g = d/dt m_t |_{t=0}, since
m_t = exp(integral_0^t g(phi_s) ds); so whether m_t is constant in z is
read off g (:attr:`Semicocycle.constant_in_z`), once, whatever built it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np

from . import holo
from .errors import (
    DegenerateFixedPoint,
    InvalidParam,
    OrderMismatch,
    ZeroNotFixed,
)
from .flows import DEFAULT_FD_STEPS, Semiflow, right_derivative
from .holo import HoloFn

BRANCH_TOL = 5e-2
CHECK_TS = (0.25, 1.0)  # times at which declared zeros and the two branches are checked
# Where a generator must take one value for its cocycle to be constant in z.
# The disc probes sit at distinct radii 0.2 .. 0.8 with golden-angle
# arguments: a nonconstant polynomial of degree <= 6 cannot take one value on
# seven points, and no z^n can, since their moduli differ.
_PROBES = {"real": np.linspace(-3, 3, 7),
           "disc": np.array([(0.2 + 0.1 * k) * np.exp(1j * k * np.pi * (3 - np.sqrt(5)))
                             for k in range(7)])}


def zero_guard(order: int) -> float:
    """Radius about a declared zero of this order inside which (phi_t')^order,
    off by O(|z - b|), replaces the quotient, off by O(eps / |z - b|^order) if
    omega cancels near the zero: the two meet here (1.5e-8 for order 1)."""
    return float(np.finfo(float).eps) ** (1.0 / (order + 1))


@dataclass(frozen=True)
class Semicocycle:
    """Time-indexed scalar family with, when known, its generator ``g``, the
    time-derivative of m_t at 0. ``trivial`` marks m_t = 1; only
    :func:`trivial_cocycle` sets it, whatever the name."""

    eval: Callable
    name: str = ""
    g: HoloFn | None = None
    trivial: bool = False

    @cached_property
    def constant_in_z(self) -> bool:
        """m_t is constant in z: g is known and takes one value on the seven
        probe points of its domain, so m_t = exp(t g). Multiplication by such
        a cocycle has exact operator norm sup|m_t|. A pole of g makes it
        non-constant."""
        if self.g is None:
            return False
        with np.errstate(all="ignore"):
            probe = np.asarray(self.g(_PROBES[self.g.domain.kind]))
            return bool(np.max(np.abs(probe - probe.flat[0])) < 1e-14)

    def __call__(self, t: float, z):
        # no cast: a cocycle has no domain of its own
        return holo.at_points(lambda w: self.eval(t, w), z, None)


def trivial_cocycle() -> Semicocycle:
    return Semicocycle(
        eval=lambda t, z: np.ones(np.shape(z), dtype=complex),
        name="one",
        g=holo.constant(0.0),
        trivial=True,
    )


# Most Gauss-Legendre nodes of an integral cocycle's time rule, reached at
# t = 16; the default configs never need more than 64. numpy builds the
# certificate's 2n-node rule by a dense eigensolve, O(n^2) memory and O(n^3)
# time: 0.13 s at the cap, and about 1.3 GB of matrix at t = 200.
TIME_NODE_CAP = 512


def _time_nodes(t: float):
    """32 nodes per unit of time, at least 32; past TIME_NODE_CAP an InvalidParam."""
    n = int(math.ceil(32.0 * max(1.0, t)))
    if n > TIME_NODE_CAP:
        raise InvalidParam(f"integral cocycle at t={t:g} needs {n} time nodes, more than "
                           f"the cap of {TIME_NODE_CAP} (t <= {TIME_NODE_CAP // 32})")
    return n


def cocycle_from_g(g: HoloFn, phi: Semiflow) -> Semicocycle:
    """Integral cocycle exp(int_0^t g(phi_s(z)) ds).

    The time integral is :func:`holo.time_integral`, with the node count
    scaled by t: the flow and g run on blocks of time nodes x points, a
    pole of g on the orbit of a point is a NonConvergent, and so is a value
    that moves when the nodes are doubled.
    """
    def eval_fn(t, z):
        t = float(t)
        zs = np.asarray(z, dtype=phi.domain.dtype)
        if t == 0.0:
            return np.ones(zs.shape, dtype=complex)
        return np.exp(holo.time_integral(lambda taus, pts: g(np.asarray(phi(taus, pts))),
                                         t, zs, _time_nodes(t)))

    return Semicocycle(eval=eval_fn, name=f"exp-int[{g.name or 'g'}]", g=g)


def derivative_cocycle(phi: Semiflow) -> Semicocycle:
    """m_t = phi_t' (a semicocycle by the chain rule), with generator G' for
    the flow's vector field G, or no generator when G is not known."""
    gprime = None
    if (gen := phi.generator) is not None:
        gprime = HoloFn(lambda z: holo.derivative_on_grid(gen, z), phi.domain,
                        name=f"({gen.name or 'G'})'")
    return Semicocycle(
        eval=lambda t, z: np.asarray(phi.space_derivative(t, z)),
        name=f"{phi.name or 'phi'}-prime",
        g=gprime,
    )


def coboundary(omega: HoloFn, phi: Semiflow, orders: dict) -> Semicocycle:
    """Quotient cocycle (omega o phi_t)/omega with declared zero orders.

    ``orders`` maps each zero of omega (complex) to its order. Declared zeros
    must be fixed points of phi (checked by sampling, ZeroNotFixed otherwise);
    within :func:`zero_guard` of a zero the derivative-power branch
    (phi_t'(z))^order is used, and the two branches are cross-checked on the
    guard circle (OrderMismatch unless they agree to BRANCH_TOL).
    """
    zeros = [(complex(b), int(n)) for b, n in orders.items()]
    for b, n in zeros:
        if n < 1:
            raise ValueError("zero orders must be positive integers")
        drift = max(abs(phi(t, b) - b) for t in CHECK_TS)
        if drift > 1e-8:
            raise ZeroNotFixed(f"declared zero {b} moves by {drift:.3e} under the semiflow")

    def omega_at(pts):
        with np.errstate(all="ignore"):  # a pole is named below
            w = np.asarray(omega(pts))
        bad = ~np.isfinite(w)
        if np.any(bad):
            raise InvalidParam(f"omega is not finite at {complex(pts[np.argmax(bad)])}")
        return w

    def eval_fn(t, z):
        """(phi_t')^order within the guard of a declared zero, the quotient
        elsewhere; omega vanishing there is an undeclared zero, and omega
        not finite at a point or at its image is a pole."""
        t, zs = float(t), np.asarray(z, dtype=complex)
        out = np.empty(zs.shape, dtype=complex)
        rest = np.ones(zs.shape, dtype=bool)
        for b, n in zeros:
            mask = np.abs(zs - b) <= zero_guard(n)
            if np.any(mask):
                out[mask] = np.asarray(phi.space_derivative(t, zs[mask])) ** n
                rest &= ~mask
        if np.any(rest):
            w = omega_at(zs[rest])
            if np.any(w == 0):
                raise InvalidParam(f"omega vanishes at {complex(zs[rest][np.argmax(w == 0)])}, "
                                   "which is not a declared zero")
            with np.errstate(all="ignore"):  # an overflow is reported below
                quot = omega_at(np.asarray(phi(t, zs[rest]))) / w
            out[rest] = holo.ensure_finite(quot, "coboundary quotient")
        return out

    # branch agreement on the guard circle
    ring = np.exp(2j * np.pi * np.arange(16) / 16)
    for b, n in zeros:
        pts = b + zero_guard(n) * ring
        for t in CHECK_TS:
            with np.errstate(all="ignore"):  # a non-finite quotient fails below
                quot = np.asarray(omega(np.asarray(phi(t, pts)))) / np.asarray(omega(pts))
            power = np.asarray(phi.space_derivative(t, pts)) ** n
            gap = float(np.max(np.abs(quot - power)))
            if not gap <= BRANCH_TOL * max(1.0, float(np.max(np.abs(power)))):
                raise OrderMismatch(
                    f"zero {b}: quotient and derivative-power branches differ by {gap:.3e} "
                    f"on the guard circle (declared order {n})"
                )

    return Semicocycle(eval=eval_fn, name=f"cob[{omega.name or 'omega'}]")


def cocycle_law_residual(m: Semicocycle, phi: Semiflow, ts, grid) -> float:
    """max over samples of |m_{t+s}(z) - m_t(z) m_s(phi_t(z))| and |m_0(z) - 1|.

    phi_t for every t takes one flow call (one RK4 batch for an ODE flow),
    which runs before the cocycle at any t > 0, so a flow that fails is
    reported before its cocycle, as in semigroup_residual. As there, m_u on
    the grid is evaluated once per distinct time u, and m_s(phi_t) once per
    pair."""
    if any(t < 0 for t in ts):
        raise InvalidParam("cocycle times must be >= 0")
    pts = np.asarray(grid)
    m_at = cache(lambda u: np.asarray(m(u, pts)))
    worst = float(np.max(np.abs(m_at(0.0) - 1.0)))
    for t, moved in zip(ts, phi.at_times(ts, pts)):
        mt = m_at(t)
        for s in ts:
            lhs = m_at(t + s)
            rhs = mt * np.asarray(m(s, moved))
            worst = np.maximum(worst, np.max(np.abs(lhs - rhs)))  # a NaN is kept
    return float(worst)


def mdot0(m: Semicocycle, z, steps=DEFAULT_FD_STEPS):
    """g = d/dt m_t at t = 0+: the quotients (m_h(z) - 1)/h, elementwise over
    the point array z."""
    return holo.at_points(lambda w: right_derivative(
        lambda hs: [(m(h, w) - 1.0) / h for h in hs], steps, "cocycle"), z, None)


def coboundary_admissibility(g: HoloFn, G: HoloFn, fixed_pts,
                             tol: float = 1e-8) -> tuple[dict, list]:
    """A nonvanishing-symbol coboundary representation exists iff the ratio
    g(b)/G'(b) is a nonnegative integer at every fixed point b; the integer is
    the zero order the representing symbol must carry at b.

    Returns ``({admissible}, rows)`` with one row per fixed point: ``point``,
    ``ratio``, ``nearest_order``, its ``distance`` from the ratio, and
    whether the point is ``admissible``."""
    pts = np.asarray(fixed_pts, dtype=G.domain.dtype)
    dGs = holo.derivative_on_grid(G, pts)
    with np.errstate(all="ignore"):  # a pole of g is named below
        gs = np.asarray(g(pts))
    rows = []
    for b, dG, gb in zip(pts.tolist(), np.asarray(dGs).tolist(), gs.tolist()):
        b = complex(b)
        if not np.isfinite(gb):
            raise InvalidParam(f"g is not finite at the fixed point {b}")
        if abs(dG) < tol:
            raise DegenerateFixedPoint(f"G'({b}) ~ 0: admissibility ratio undefined")
        ratio = complex(gb) / dG
        nearest = max(0, int(round(ratio.real)))
        dist = abs(ratio - nearest)
        rows.append({"point": b, "ratio": ratio, "nearest_order": nearest, "distance": dist,
                     "admissible": bool(dist <= 1e-6 + 10.0 * tol)})
    return {"admissible": all(row["admissible"] for row in rows)}, rows
