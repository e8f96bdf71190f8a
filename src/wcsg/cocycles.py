"""Semicocycles for a semiflow: constructors, laws, and growth envelopes.

A semicocycle for phi is a scalar family with m_0 = 1 and
m_{t+s}(z) = m_t(z) m_s(phi_t(z)). Three constructions are provided:

* integral:   m_t(z) = exp(integral_0^t g(phi_s(z)) ds), Gauss-Legendre in
              time with a node-doubling certificate;
* coboundary: m_t = (omega o phi_t)/omega off the zeros of omega, extended
              across each zero by (phi_t')^order; declared zeros are checked
              to be fixed points and the two branches are cross-checked on
              the guard circle;
* derivative: m_t = phi_t' (closed form for affine catalog flows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import holo
from .errors import (
    DegenerateFixedPoint,
    InvalidParam,
    NonConvergent,
    OrderMismatch,
    UnboundedSignal,
    ZeroNotFixed,
)
from .flows import DEFAULT_FD_STEPS, GeneratorEstimate, Semiflow, right_derivative
from .holo import DEFAULT_POLICY, OVERFLOW_GUARD, HoloFn, QuadPolicy

ZERO_GUARD = 1e-3
BRANCH_TOL = 5e-2


@dataclass(frozen=True)
class Semicocycle:
    """Time-indexed scalar family with constructor provenance.

    ``constant_in_z`` marks cocycles known to be spatially constant (integral
    cocycles of constant g, derivative cocycles of affine flows); multiplication
    by such a cocycle has exact operator norm sup|m_t|.
    """

    eval: Callable
    provenance: str = "explicit"
    name: str = ""
    constant_in_z: bool = False
    g: HoloFn | None = None  # time-derivative at 0 when known

    def __call__(self, t: float, z):
        return self.eval(t, z)

    @property
    def trivial(self) -> bool:
        """m_t = 1; set only by :func:`trivial_cocycle`, whatever the name."""
        return self.provenance == "trivial"


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares exponential envelope M e^{omega t} for sup |m_t|."""

    M: float
    omega: float
    samples: tuple  # (t, sup-norm lower bound) pairs

    def dominates(self, slack: float = 1e-9) -> bool:
        return all(self.M * math.exp(self.omega * t) >= s - slack for t, s in self.samples)


def trivial_cocycle() -> Semicocycle:
    return Semicocycle(
        eval=lambda t, z: np.ones(np.shape(z), dtype=complex),
        provenance="trivial",
        name="one",
        constant_in_z=True,
        g=None,
    )


@lru_cache(maxsize=32)
def _gl01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _time_nodes(t: float):
    return max(8, int(math.ceil(32.0 * max(1.0, t))))


def cocycle_from_g(g: HoloFn, phi: Semiflow, policy: QuadPolicy = DEFAULT_POLICY) -> Semicocycle:
    """Integral cocycle exp(int_0^t g(phi_s(z)) ds).

    The time integral uses Gauss-Legendre with the node count scaled by t and
    doubled for the convergence certificate.
    """
    is_real = phi.domain.kind == "real"

    def log_integral(t, zs, n):
        xs, ws = _gl01(n)
        acc = np.zeros(np.shape(zs), dtype=complex)
        for x, w in zip(xs, ws):
            acc = acc + w * np.asarray(g(np.asarray(phi(x * t, zs))))
        return t * acc

    def eval_fn(t, z):
        t = float(t)
        zs = np.asarray(z, dtype=float if is_real else complex)
        if t == 0.0:
            return np.ones(zs.shape, dtype=complex)
        n = _time_nodes(t)
        coarse = log_integral(t, zs, n)
        fine = log_integral(t, zs, 2 * n)
        gap = float(np.max(np.abs(coarse - fine)))
        if gap > 100.0 * policy.tol * max(1.0, float(np.max(np.abs(fine)))):
            raise NonConvergent(
                f"time integral at t={t:g}: node doubling moved the value by {gap:.3e}"
            )
        return np.exp(fine)

    # g constant in z makes the whole cocycle spatially constant
    probe_pts = np.linspace(-3, 3, 7) if g.domain.kind == "real" else \
        0.8 * np.exp(2j * np.pi * np.arange(7) / 7)
    probe = np.asarray(g(probe_pts))
    const = bool(np.max(np.abs(probe - probe.flat[0])) < 1e-14)
    return Semicocycle(
        eval=eval_fn,
        provenance="integral",
        name=f"exp-int[{g.name or 'g'}]",
        constant_in_z=const,
        g=g,
    )


def derivative_cocycle(phi: Semiflow) -> Semicocycle:
    """m_t = phi_t' (a semicocycle by the chain rule).

    Flows with a closed-form ``prime`` are affine, so m_t is constant in z.
    """
    gprime = None
    if phi.generator is not None and phi.domain.kind != "real":
        gen = phi.generator
        gprime = HoloFn(lambda z: holo.derivative_on_grid(gen, z), phi.domain,
                        name=f"({gen.name or 'G'})'")
    return Semicocycle(
        eval=lambda t, z: np.asarray(phi.space_derivative(t, z)),
        provenance="derivative",
        name=f"{phi.name or 'phi'}-prime",
        constant_in_z=phi.prime is not None,
        g=gprime,
    )


def _by_zeros(z, zeros, zero_guard: float, omega: HoloFn, near, far):
    """near(points, order) within zero_guard of each declared zero (b, order)
    of omega, far(points) / omega(points) at every other point. omega
    vanishing at one of those is an undeclared zero (InvalidParam)."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(zs.shape, dtype=complex)
    rest = np.ones(zs.shape, dtype=bool)
    for b, n in zeros:
        mask = np.abs(zs - b) <= zero_guard
        if np.any(mask):
            out[mask] = near(zs[mask], n)
            rest &= ~mask
    if np.any(rest):
        w = np.asarray(omega(zs[rest]))
        if np.any(w == 0):
            raise InvalidParam(f"omega vanishes at {complex(zs[rest][np.argmax(w == 0)])}, "
                               "which is not a declared zero")
        out[rest] = np.asarray(far(zs[rest])) / w
    return out.reshape(np.shape(z)) if np.ndim(z) else out[0]


def coboundary(omega: HoloFn, phi: Semiflow, orders: dict,
               zero_guard: float = ZERO_GUARD, branch_tol: float = BRANCH_TOL,
               check_ts=(0.25, 1.0), tol_fixed: float = 1e-8) -> Semicocycle:
    """Quotient cocycle (omega o phi_t)/omega with declared zero orders.

    ``orders`` maps each zero of omega (complex) to its order. Declared zeros
    must be fixed points of phi (checked by sampling, ZeroNotFixed otherwise);
    within ``zero_guard`` of a zero the derivative-power branch
    (phi_t'(z))^order is used, and the two branches are cross-checked on the
    guard circle (OrderMismatch beyond ``branch_tol``).
    """
    zeros = [(complex(b), int(n)) for b, n in orders.items()]
    for b, n in zeros:
        if n < 1:
            raise ValueError("zero orders must be positive integers")
        drift = max(abs(complex(np.asarray(phi(t, b))) - b) for t in check_ts)
        if drift > tol_fixed:
            raise ZeroNotFixed(f"declared zero {b} moves by {drift:.3e} under the semiflow")

    def eval_fn(t, z):
        t = float(t)
        return _by_zeros(z, zeros, zero_guard, omega,
                         lambda w, n: np.asarray(phi.space_derivative(t, w)) ** n,
                         lambda w: omega(np.asarray(phi(t, w))))

    # branch agreement on the guard circle
    ring = np.exp(2j * np.pi * np.arange(16) / 16)
    for b, n in zeros:
        pts = b + zero_guard * ring
        for t in check_ts:
            quot = np.asarray(omega(np.asarray(phi(t, pts)))) / np.asarray(omega(pts))
            power = np.asarray(phi.space_derivative(t, pts)) ** n
            gap = float(np.max(np.abs(quot - power)))
            if gap > branch_tol * max(1.0, float(np.max(np.abs(power)))):
                raise OrderMismatch(
                    f"zero {b}: quotient and derivative-power branches differ by {gap:.3e} "
                    f"on the guard circle (declared order {n})"
                )

    return Semicocycle(
        eval=eval_fn,
        provenance="coboundary",
        name=f"cob[{omega.name or 'omega'}]",
    )


def g_from_coboundary(omega: HoloFn, G: HoloFn, orders: dict,
                      zero_guard: float = ZERO_GUARD) -> HoloFn:
    """The integrand G omega'/omega, extended across each zero b by n G'(b)."""
    zeros = [(complex(b), int(n)) for b, n in orders.items()]

    def fn(z):
        return _by_zeros(z, zeros, zero_guard, omega,
                         lambda w, n: n * holo.derivative_on_grid(G, w),
                         lambda w: np.asarray(G(w)) * holo.derivative_on_grid(omega, w))

    return HoloFn(fn, omega.domain, name=f"g[{omega.name or 'omega'}]")


def cocycle_law_residual(m: Semicocycle, phi: Semiflow, ts, grid) -> float:
    """max over samples of |m_{t+s}(z) - m_t(z) m_s(phi_t(z))| and |m_0(z) - 1|."""
    pts = np.asarray(grid)
    worst = float(np.max(np.abs(np.asarray(m(0.0, pts)) - 1.0)))
    for t in ts:
        mt = np.asarray(m(t, pts))
        moved = np.asarray(phi(t, pts))
        for s in ts:
            lhs = np.asarray(m(t + s, pts))
            rhs = mt * np.asarray(m(s, moved))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def mdot0(m: Semicocycle, z, steps=DEFAULT_FD_STEPS) -> GeneratorEstimate:
    """Richardson-extrapolated (m_h(z) - 1)/h."""
    return right_derivative(lambda h: (complex(np.asarray(m(h, z))) - 1.0) / h, steps, "cocycle")


@dataclass(frozen=True)
class AdmissibilityRecord:
    point: complex
    ratio: complex
    nearest_order: int
    distance: float
    admissible: bool


@dataclass(frozen=True)
class AdmissibilityVerdict:
    records: tuple
    admissible: bool


def coboundary_admissibility(g: HoloFn, G: HoloFn, Gprime: HoloFn | None,
                             fixed_pts, tol: float = 1e-8) -> AdmissibilityVerdict:
    """A nonvanishing-symbol coboundary representation exists iff the ratio
    g(b)/G'(b) is a nonnegative integer at every fixed point b; the integer is
    the zero order the representing symbol must carry at b."""
    records = []
    for b in fixed_pts:
        b = complex(b)
        dG = complex(np.asarray(Gprime(b) if Gprime is not None else holo.derivative_on_grid(G, b)))
        if abs(dG) < tol:
            raise DegenerateFixedPoint(f"G'({b}) ~ 0: admissibility ratio undefined")
        ratio = complex(np.asarray(g(b))) / dG
        nearest = max(0, int(round(ratio.real)))
        dist = abs(ratio - nearest)
        records.append(
            AdmissibilityRecord(
                point=b,
                ratio=ratio,
                nearest_order=nearest,
                distance=dist,
                admissible=bool(dist <= 1e-6 + 10.0 * tol),
            )
        )
    return AdmissibilityVerdict(
        records=tuple(records),
        admissible=all(r.admissible for r in records),
    )


def boundary_grid(r_cap: float = 1.0 - 1e-6, n_angles: int = 64):
    radii = np.array([0.5, 0.9, 0.99, 1.0 - 1e-4, r_cap])
    ring = np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
    return (radii[:, None] * ring[None, :]).ravel()


def growth_fit(m: Semicocycle, ts, grid) -> GrowthFit:
    """Fit log sup|m_t| ~ log M + omega t, then push M up so the envelope
    dominates every sample. M never drops below 1 (m_0 = 1)."""
    ts = [float(t) for t in ts]
    pts = np.asarray(grid)
    sups = []
    for t in ts:
        vals = np.abs(np.asarray(m(t, pts)))
        s = float(np.max(vals))
        if not np.isfinite(s) or s > OVERFLOW_GUARD:
            raise UnboundedSignal(f"sup |m_t| exceeded the overflow guard at t={t:g}")
        sups.append(s)
    logs = np.log(np.maximum(sups, 1e-300))
    tarr = np.asarray(ts)
    omega, logM = np.polyfit(tarr, logs, 1)
    M = math.exp(logM)
    M = max(M, 1.0, *(s * math.exp(-omega * t) for t, s in zip(ts, sups)))
    return GrowthFit(M=float(M), omega=float(omega), samples=tuple(zip(ts, sups)))
